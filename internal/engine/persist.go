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
	"repro/internal/storage"
	"repro/internal/types"
)

// Database persistence: every durable byte lives in pages, and the WAL
// logs pages. Page 0 is the superblock pointing at a chain of pages that
// hold a gob-encoded image of the data dictionary. Heaps, B-trees, hash
// indexes and LOBs live in ordinary pages and only need their root/head
// references in it; bitmap indexes are derived data, rebuilt from their
// heaps on Open.
//
// The chain is rewritten by every DDL statement, as logged page writes
// inside the statement's own transaction, and by every checkpoint. Open
// replays the log and then reads the chain, so recovery has one path.
// Row counts, distinct-key counts and value ranges in the chain are
// statistics as of that write; Open recounts rows when replay applied
// records the chain may predate. Go-registered pieces (functions,
// IndexMethods) are process state: cartridges must be re-registered
// after reopen, exactly like loading a cartridge library at instance
// startup. Indextypes that keep state outside the database (the external
// R-tree) must be rebuilt, which is precisely the paper's §5 caveat about
// external index stores.

// superMagic opens page 0. retiredMagic marks files of the format whose
// commit records carried a dictionary snapshot; Open refuses them before
// replay, which would otherwise cut their log at the first commit record.
var (
	superMagic   = [8]byte{'E', 'X', 'D', 'B', 'D', 'I', 'C', 'T'}
	retiredMagic = [8]byte{'E', 'X', 'D', 'B', 'S', 'N', 'A', 'P'}
)

const (
	snapPageHeader = 6 // next page id (4) + payload length (2)
	snapPayload    = storage.PageSize - snapPageHeader
)

// snapshot is the gob-encoded dictionary. Operators, indextypes and
// object types are plain data and are stored as they are; tables and
// indexes stand in for their storage handles with the page ids that
// reopen them.
type snapshot struct {
	Tables     []snapTable
	Indexes    []snapIndex
	Operators  []*catalog.Operator
	IndexTypes []*catalog.IndexType
	TypeDescs  []*types.TypeDesc
}

type snapTable struct {
	Name     string
	Cols     []catalog.Column
	HeapHead storage.PageID
	RowCount int
	Hidden   bool
}

type snapIndex struct {
	Name         string
	Table        string
	Column       string
	ColPos       int
	Kind         catalog.IndexKind
	Unique       bool
	IndexType    string
	Params       string
	DistinctKeys int
	HasRange     bool
	MinVal       float64
	MaxVal       float64

	BTreeMeta storage.PageID
	HashDir   storage.PageID
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

// writeSnapshotChain serializes the dictionary into the page-0 chain,
// leaving the chain pages dirty in the buffer pool for the enclosing
// transaction's commit (DDL) or the checkpoint's to log.
func (db *DB) writeSnapshotChain() error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(db.buildSnapshot()); err != nil {
		return fmt.Errorf("engine: encode dictionary: %w", err)
	}
	data := buf.Bytes()

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
		snap.Tables = append(snap.Tables, snapTable{
			Name: t.Name, Cols: t.Cols, HeapHead: t.Heap.FirstPage(),
			RowCount: t.RowCount, Hidden: t.Hidden,
		})
		for _, ix := range db.cat.TableIndexes(t.Name) {
			si := snapIndex{
				Name: ix.Name, Table: ix.Table, Column: ix.Column, ColPos: ix.ColPos,
				Kind: ix.Kind, Unique: ix.Unique, IndexType: ix.IndexType,
				Params: ix.Params, DistinctKeys: ix.DistinctKeys,
				HasRange: ix.HasRange, MinVal: ix.MinVal, MaxVal: ix.MaxVal,
				BTreeMeta: storage.InvalidPage, HashDir: storage.InvalidPage,
			}
			switch ix.Kind {
			case catalog.BTreeIndex:
				si.BTreeMeta = ix.BT.MetaPage()
			case catalog.HashIndex:
				si.HashDir = ix.HX.DirPage()
			}
			snap.Indexes = append(snap.Indexes, si)
		}
	}
	for _, name := range db.cat.OperatorNames() {
		op, _ := db.cat.Operator(name)
		snap.Operators = append(snap.Operators, op)
	}
	for _, name := range db.cat.IndexTypeNames() {
		it, _ := db.cat.IndexType(name)
		snap.IndexTypes = append(snap.IndexTypes, it)
	}
	for _, name := range db.cat.TypeDescNames() {
		td, _ := db.cat.TypeDesc(name)
		snap.TypeDescs = append(snap.TypeDescs, td)
	}
	return snap
}

// checkFormat refuses a page file of another format before WAL replay
// reads or cuts its log. A zero page 0 passes: a database that crashed
// before its first checkpoint has its superblock only in the log.
func checkFormat(b storage.Backend) error {
	if b.NumPages() == 0 {
		return nil
	}
	page := make([]byte, storage.PageSize)
	if err := b.ReadPage(0, page); err != nil {
		return fmt.Errorf("engine: read superblock: %w", err)
	}
	switch magic := page[0:8]; {
	case bytes.Equal(magic, superMagic[:]), bytes.Equal(magic, make([]byte, len(magic))):
		return nil
	case bytes.Equal(magic, retiredMagic[:]):
		return fmt.Errorf("engine: database file uses a retired format (dictionary snapshots in commit records) and cannot be opened by this version")
	default:
		return fmt.Errorf("engine: not an extdb database (bad superblock magic)")
	}
}

// rebuildDerived restores what the dictionary chain does not hold:
// bitmap index contents, always, and every table's row count when
// recount is set because replay applied records the chain may predate.
// (Without the recount a stale count would be written back by every
// later checkpoint and never heal.)
func (db *DB) rebuildDerived(recount bool) error {
	s := db.NewSession()
	for _, t := range db.cat.Tables() {
		if recount {
			n, err := t.Heap.Count()
			if err != nil {
				return fmt.Errorf("engine: recount rows of %s: %w", t.Name, err)
			}
			t.RowCount = n
		}
		for _, ix := range db.cat.TableIndexes(t.Name) {
			if ix.Kind != catalog.BitmapIndex {
				continue
			}
			if _, err := s.backfillIndex(ix, t); err != nil {
				return fmt.Errorf("engine: rebuild bitmap index %s: %w", ix.Name, err)
			}
		}
	}
	return nil
}

// loadSnapshot reads the dictionary chain and rebuilds the catalog.
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
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("engine: decode dictionary: %w", err)
	}
	return db.applySnapshot(snap)
}

func (db *DB) applySnapshot(snap snapshot) error {
	for _, st := range snap.Tables {
		heap, err := storage.OpenHeap(db.pager, st.HeapHead)
		if err != nil {
			return fmt.Errorf("engine: reopen heap of %s: %w", st.Name, err)
		}
		t := &catalog.Table{Name: st.Name, Cols: st.Cols, Heap: heap, RowCount: st.RowCount, Hidden: st.Hidden}
		if err := db.cat.AddTable(t); err != nil {
			return err
		}
	}
	for _, td := range snap.TypeDescs {
		if err := db.cat.AddTypeDesc(td); err != nil {
			return err
		}
	}
	for _, op := range snap.Operators {
		if err := db.cat.AddOperator(op); err != nil {
			return err
		}
	}
	for _, it := range snap.IndexTypes {
		if err := db.cat.AddIndexType(it); err != nil {
			return err
		}
	}
	for _, si := range snap.Indexes {
		ix := &catalog.Index{
			Name: si.Name, Table: si.Table, Column: si.Column, ColPos: si.ColPos,
			Kind: si.Kind, Unique: si.Unique,
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
			ix.BM = bitmapidx.NewIndex()
		}
		if err != nil {
			return fmt.Errorf("engine: reopen index %s: %w", si.Name, err)
		}
		if err := db.cat.AddIndex(ix); err != nil {
			return err
		}
	}
	return nil
}
