package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/hashidx"
	"repro/internal/loblib"
	"repro/internal/storage"
	"repro/internal/types"
)

// Database persistence: page 0 is the superblock pointing at a chain of
// snapshot pages holding a gob-encoded image of the data dictionary (and
// the LOB directory). Heaps, B-trees, hash indexes and LOBs live in
// ordinary pages and only need their root/head references persisted;
// bitmap indexes are serialized wholesale into the snapshot.
//
// A snapshot is written on Checkpoint and Close; Open of a non-empty file
// loads it and reattaches every storage structure. Go-registered pieces
// (functions, IndexMethods) are process state: cartridges must be
// re-registered after reopen, exactly like loading a cartridge library
// at instance startup. Indextypes that keep state outside the database
// (the external R-tree) must be rebuilt, which is precisely the paper's
// §5 caveat about external index stores.

var superMagic = [8]byte{'E', 'X', 'D', 'B', 'S', 'N', 'A', 'P'}

const (
	snapPageHeader = 6 // next page id (4) + payload length (2)
	snapPayload    = storage.PageSize - snapPageHeader
)

// snapColumn mirrors catalog.Column for gob.
type snapColumn struct {
	Name     string
	Kind     uint8
	TypeName string
}

type snapTable struct {
	Name     string
	Cols     []snapColumn
	HeapHead storage.PageID
	RowCount int
	Hidden   bool
}

type snapIndex struct {
	Name         string
	Table        string
	Column       string
	ColPos       int
	Kind         int
	Unique       bool
	IndexType    string
	Params       string
	DistinctKeys int
	HasRange     bool
	MinVal       float64
	MaxVal       float64

	BTreeMeta storage.PageID
	HashDir   storage.PageID
	Bitmap    map[string][]byte // encoded value key -> serialized bitmap
}

type snapBinding struct {
	ArgKinds   []uint8
	ReturnKind uint8
	FuncName   string
}

type snapOperator struct {
	Name        string
	Bindings    []snapBinding
	AncillaryTo string
}

type snapOpSig struct {
	Name     string
	ArgKinds []uint8
}

type snapIndexType struct {
	Name        string
	Ops         []snapOpSig
	MethodsName string
	StatsName   string
}

type snapTypeDesc struct {
	Name      string
	AttrNames []string
	AttrKinds []uint8
}

type snapshot struct {
	Tables     []snapTable
	Indexes    []snapIndex
	Operators  []snapOperator
	IndexTypes []snapIndexType
	TypeDescs  []snapTypeDesc
	LOBs       []loblib.DirEntry
}

// initSuperblock formats page 0 of a fresh database.
func (db *DB) initSuperblock() error {
	pg, err := db.pager.NewPage()
	if err != nil {
		return err
	}
	if pg.ID != 0 {
		db.pager.Unpin(pg, false)
		return fmt.Errorf("engine: superblock allocated as page %d", pg.ID)
	}
	copy(pg.Data[0:8], superMagic[:])
	binary.BigEndian.PutUint32(pg.Data[8:12], uint32(storage.InvalidPage))
	db.pager.Unpin(pg, true)
	return nil
}

// snapshotBytes gob-encodes the current dictionary snapshot. The WAL
// commit protocol embeds it in every commit record so recovery restores
// volatile dictionary state (row counts, bitmap indexes, the LOB
// directory, committed DDL) without needing a checkpoint.
func (db *DB) snapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(db.buildSnapshot()); err != nil {
		return nil, fmt.Errorf("engine: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// applySnapshotBytes decodes and applies a gob snapshot (the WAL
// recovery path; the page-0 chain path is loadSnapshot).
func (db *DB) applySnapshotBytes(data []byte) error {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("engine: decode snapshot: %w", err)
	}
	return db.applySnapshot(snap)
}

// writeSnapshotChain serializes the dictionary into the page-0 snapshot
// chain, leaving the chain pages dirty in the buffer pool for Checkpoint
// to log and flush.
func (db *DB) writeSnapshotChain() error {
	data, err := db.snapshotBytes()
	if err != nil {
		return err
	}

	// Free the previous chain.
	pg, err := db.pager.Fetch(0)
	if err != nil {
		return err
	}
	old := storage.PageID(binary.BigEndian.Uint32(pg.Data[8:12]))
	db.pager.Unpin(pg, false)
	for id := old; id != storage.InvalidPage; {
		cp, err := db.pager.Fetch(id)
		if err != nil {
			return err
		}
		next := storage.PageID(binary.BigEndian.Uint32(cp.Data[0:4]))
		db.pager.Unpin(cp, false)
		db.pager.Free(id)
		id = next
	}

	// Write the new chain. Each page is unpinned within its own loop
	// iteration (the back-link is patched through a re-fetch, which hits
	// the buffer cache) so an allocation failure part-way through cannot
	// leak a pinned frame.
	head := storage.InvalidPage
	prev := storage.InvalidPage
	for off := 0; off < len(data) || off == 0; off += snapPayload {
		npg, err := db.pager.NewPage()
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint32(npg.Data[0:4], uint32(storage.InvalidPage))
		n := len(data) - off
		if n > snapPayload {
			n = snapPayload
		}
		binary.BigEndian.PutUint16(npg.Data[4:6], uint16(n))
		copy(npg.Data[snapPageHeader:], data[off:off+n])
		id := npg.ID
		db.pager.Unpin(npg, true)
		if prev != storage.InvalidPage {
			ppg, err := db.pager.Fetch(prev)
			if err != nil {
				return err
			}
			db.pager.WillWrite(ppg)
			binary.BigEndian.PutUint32(ppg.Data[0:4], uint32(id))
			db.pager.Unpin(ppg, true)
		} else {
			head = id
		}
		prev = id
		if n < snapPayload {
			break
		}
	}
	pg, err = db.pager.Fetch(0)
	if err != nil {
		return err
	}
	db.pager.WillWrite(pg)
	binary.BigEndian.PutUint32(pg.Data[8:12], uint32(head))
	db.pager.Unpin(pg, true)
	return nil
}

func (db *DB) buildSnapshot() snapshot {
	var snap snapshot
	for _, t := range db.cat.Tables() {
		st := snapTable{
			Name: t.Name, HeapHead: t.Heap.FirstPage(),
			RowCount: t.RowCount, Hidden: t.Hidden,
		}
		for _, c := range t.Cols {
			st.Cols = append(st.Cols, snapColumn{Name: c.Name, Kind: uint8(c.Kind), TypeName: c.TypeName})
		}
		snap.Tables = append(snap.Tables, st)
		for _, ix := range db.cat.TableIndexes(t.Name) {
			si := snapIndex{
				Name: ix.Name, Table: ix.Table, Column: ix.Column, ColPos: ix.ColPos,
				Kind: int(ix.Kind), Unique: ix.Unique, IndexType: ix.IndexType,
				Params: ix.Params, DistinctKeys: ix.DistinctKeys,
				HasRange: ix.HasRange, MinVal: ix.MinVal, MaxVal: ix.MaxVal,
				BTreeMeta: storage.InvalidPage, HashDir: storage.InvalidPage,
			}
			switch ix.Kind {
			case catalog.BTreeIndex:
				si.BTreeMeta = ix.BT.MetaPage()
			case catalog.HashIndex:
				si.HashDir = ix.HX.DirPage()
			case catalog.BitmapIndex:
				si.Bitmap = serializeBitmapIndex(ix.BM)
			}
			snap.Indexes = append(snap.Indexes, si)
		}
	}
	for _, opName := range db.cat.OperatorNames() {
		op, _ := db.cat.Operator(opName)
		so := snapOperator{Name: op.Name, AncillaryTo: op.AncillaryTo}
		for _, b := range op.Bindings {
			sb := snapBinding{ReturnKind: uint8(b.ReturnKind), FuncName: b.FuncName}
			for _, k := range b.ArgKinds {
				sb.ArgKinds = append(sb.ArgKinds, uint8(k))
			}
			so.Bindings = append(so.Bindings, sb)
		}
		snap.Operators = append(snap.Operators, so)
	}
	for _, itName := range db.cat.IndexTypeNames() {
		it, _ := db.cat.IndexType(itName)
		sit := snapIndexType{Name: it.Name, MethodsName: it.MethodsName, StatsName: it.StatsName}
		for _, sig := range it.Ops {
			ss := snapOpSig{Name: sig.Name}
			for _, k := range sig.ArgKinds {
				ss.ArgKinds = append(ss.ArgKinds, uint8(k))
			}
			sit.Ops = append(sit.Ops, ss)
		}
		snap.IndexTypes = append(snap.IndexTypes, sit)
	}
	for _, tdName := range db.cat.TypeDescNames() {
		td, _ := db.cat.TypeDesc(tdName)
		std := snapTypeDesc{Name: td.Name, AttrNames: append([]string(nil), td.AttrNames...)}
		for _, k := range td.AttrKinds {
			std.AttrKinds = append(std.AttrKinds, uint8(k))
		}
		snap.TypeDescs = append(snap.TypeDescs, std)
	}
	snap.LOBs = db.lobs.Snapshot()
	return snap
}

// loadSnapshot reads the snapshot chain and rebuilds the dictionary.
func (db *DB) loadSnapshot() error {
	pg, err := db.pager.Fetch(0)
	if err != nil {
		return err
	}
	if !bytes.Equal(pg.Data[0:8], superMagic[:]) {
		db.pager.Unpin(pg, false)
		return fmt.Errorf("engine: not an extdb database (bad superblock magic)")
	}
	head := storage.PageID(binary.BigEndian.Uint32(pg.Data[8:12]))
	db.pager.Unpin(pg, false)
	if head == storage.InvalidPage {
		return nil // empty database
	}
	var data []byte
	for id := head; id != storage.InvalidPage; {
		cp, err := db.pager.Fetch(id)
		if err != nil {
			return err
		}
		next := storage.PageID(binary.BigEndian.Uint32(cp.Data[0:4]))
		n := int(binary.BigEndian.Uint16(cp.Data[4:6]))
		data = append(data, cp.Data[snapPageHeader:snapPageHeader+n]...)
		db.pager.Unpin(cp, false)
		id = next
	}
	return db.applySnapshotBytes(data)
}

func (db *DB) applySnapshot(snap snapshot) error {
	for _, st := range snap.Tables {
		heap, err := storage.OpenHeap(db.pager, st.HeapHead)
		if err != nil {
			return fmt.Errorf("engine: reopen heap of %s: %w", st.Name, err)
		}
		t := &catalog.Table{Name: st.Name, Heap: heap, RowCount: st.RowCount, Hidden: st.Hidden}
		for _, c := range st.Cols {
			t.Cols = append(t.Cols, catalog.Column{Name: c.Name, Kind: types.Kind(c.Kind), TypeName: c.TypeName})
		}
		if err := db.cat.AddTable(t); err != nil {
			return err
		}
	}
	for _, std := range snap.TypeDescs {
		td := &types.TypeDesc{Name: std.Name, AttrNames: std.AttrNames}
		for _, k := range std.AttrKinds {
			td.AttrKinds = append(td.AttrKinds, types.Kind(k))
		}
		if err := db.cat.AddTypeDesc(td); err != nil {
			return err
		}
	}
	for _, so := range snap.Operators {
		op := &catalog.Operator{Name: so.Name, AncillaryTo: so.AncillaryTo}
		for _, sb := range so.Bindings {
			b := catalog.Binding{ReturnKind: types.Kind(sb.ReturnKind), FuncName: sb.FuncName}
			for _, k := range sb.ArgKinds {
				b.ArgKinds = append(b.ArgKinds, types.Kind(k))
			}
			op.Bindings = append(op.Bindings, b)
		}
		if err := db.cat.AddOperator(op); err != nil {
			return err
		}
	}
	for _, sit := range snap.IndexTypes {
		it := &catalog.IndexType{Name: sit.Name, MethodsName: sit.MethodsName, StatsName: sit.StatsName}
		for _, ss := range sit.Ops {
			sig := catalog.OpSig{Name: ss.Name}
			for _, k := range ss.ArgKinds {
				sig.ArgKinds = append(sig.ArgKinds, types.Kind(k))
			}
			it.Ops = append(it.Ops, sig)
		}
		if err := db.cat.AddIndexType(it); err != nil {
			return err
		}
	}
	for _, si := range snap.Indexes {
		ix := &catalog.Index{
			Name: si.Name, Table: si.Table, Column: si.Column, ColPos: si.ColPos,
			Kind: catalog.IndexKind(si.Kind), Unique: si.Unique,
			IndexType: si.IndexType, Params: si.Params, DistinctKeys: si.DistinctKeys,
			HasRange: si.HasRange, MinVal: si.MinVal, MaxVal: si.MaxVal,
		}
		var err error
		switch ix.Kind {
		case catalog.BTreeIndex:
			ix.BT, err = btree.Open(db.pager, si.BTreeMeta)
		case catalog.HashIndex:
			ix.HX, err = hashidx.Open(db.pager, si.HashDir)
		case catalog.BitmapIndex:
			ix.BM, err = deserializeBitmapIndex(si.Bitmap)
		}
		if err != nil {
			return fmt.Errorf("engine: reopen index %s: %w", si.Name, err)
		}
		if err := db.cat.AddIndex(ix); err != nil {
			return err
		}
	}
	db.lobs.Restore(snap.LOBs)
	return nil
}

func serializeBitmapIndex(x *bitmapidx.Index) map[string][]byte {
	out := make(map[string][]byte)
	x.Each(func(key []byte, bm *bitmapidx.Bitmap) {
		out[string(key)] = bm.Serialize()
	})
	return out
}

func deserializeBitmapIndex(m map[string][]byte) (*bitmapidx.Index, error) {
	x := bitmapidx.NewIndex()
	for key, enc := range m {
		bm, err := bitmapidx.Deserialize(enc)
		if err != nil {
			return nil, err
		}
		bm.Each(func(pos uint64) bool {
			x.Insert([]byte(key), pos)
			return true
		})
	}
	return x, nil
}
