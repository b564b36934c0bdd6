package chem

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/loblib"
	"repro/internal/types"
)

// Record layout inside the index blob: fixed-size records appended
// sequentially, tombstoned in place on delete. This is the Daylight
// file-index format in miniature; because access goes through the
// loblib.Store interface it runs unchanged against OS files and database
// LOBs ("minimal changes were required to the index management
// software").
const (
	maxSmiles  = 120
	recordSize = 8 + 1 + 1 + maxSmiles + FPWords*8 + 8 + 8
)

type record struct {
	rid    int64
	dead   bool
	smiles string
	fp     Fingerprint
	canon  uint64
	taut   uint64
}

func encodeRecord(r record) ([]byte, error) {
	if len(r.smiles) > maxSmiles {
		return nil, fmt.Errorf("chem: molecule notation longer than %d bytes", maxSmiles)
	}
	buf := make([]byte, recordSize)
	putU64(buf[0:], uint64(r.rid))
	if r.dead {
		buf[8] = 1
	}
	buf[9] = byte(len(r.smiles))
	copy(buf[10:], r.smiles)
	off := 10 + maxSmiles
	for i := 0; i < FPWords; i++ {
		putU64(buf[off+i*8:], r.fp[i])
	}
	off += FPWords * 8
	putU64(buf[off:], r.canon)
	putU64(buf[off+8:], r.taut)
	return buf, nil
}

func decodeRecord(buf []byte) record {
	var r record
	r.rid = int64(getU64(buf[0:]))
	r.dead = buf[8] != 0
	n := int(buf[9])
	r.smiles = string(buf[10 : 10+n])
	off := 10 + maxSmiles
	for i := 0; i < FPWords; i++ {
		r.fp[i] = getU64(buf[off+i*8:])
	}
	off += FPWords * 8
	r.canon = getU64(buf[off:])
	r.taut = getU64(buf[off+8:])
	return r
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// chemParams are the PARAMETERS directives of the chemistry indextype:
//
//	:Storage lob|file   where the index records live (default lob)
//	:Dir <path>         directory for file storage
//	:Events on|off      compensate file-store changes on rollback (§5)
type chemParams struct {
	file   bool
	dir    string
	events bool
}

func parseChemParams(s string) (chemParams, error) {
	var p chemParams
	fields := strings.Fields(s)
	for i := 0; i < len(fields); i++ {
		switch strings.ToLower(fields[i]) {
		case ":storage":
			i++
			if i >= len(fields) {
				return p, fmt.Errorf("chem: :Storage wants lob|file")
			}
			switch strings.ToLower(fields[i]) {
			case "lob":
			case "file":
				p.file = true
			default:
				return p, fmt.Errorf("chem: :Storage wants lob|file, got %q", fields[i])
			}
		case ":dir":
			i++
			if i >= len(fields) {
				return p, fmt.Errorf("chem: :Dir wants a path")
			}
			p.dir = fields[i]
		case ":events":
			i++
			if i >= len(fields) {
				return p, fmt.Errorf("chem: :Events wants on|off")
			}
			switch strings.ToLower(fields[i]) {
			case "on":
				p.events = true
			case "off":
				p.events = false
			default:
				return p, fmt.Errorf("chem: :Events wants on|off, got %q", fields[i])
			}
		case "":
		default:
			return p, fmt.Errorf("chem: unknown directive %q", fields[i])
		}
	}
	return p, nil
}

// chemIdx is the per-index state: which store holds the records and the
// blob id within it.
type chemIdx struct {
	params    chemParams
	fileStore *loblib.FileStore // non-nil for file storage
	blobID    int64
}

// store returns the blob store to use for this index: the session's
// transactional LOB store, or the index's private file store.
func (ci *chemIdx) store(s extidx.Server) loblib.Store {
	if ci.fileStore != nil {
		return ci.fileStore
	}
	return s.LOBs()
}

// Methods implements extidx.IndexMethods for ChemIndexType.
type Methods struct {
	mu      sync.Mutex
	indexes map[string]*chemIdx
}

// NewMethods returns an empty chemistry method set.
func NewMethods() *Methods { return &Methods{indexes: make(map[string]*chemIdx)} }

// FileStats returns the I/O statistics of the named index's file store,
// or ok=false if the index is not file-backed (benchmarks read these to
// count "intermediate write operations").
func (m *Methods) FileStats(indexName string) (loblib.Stats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ci, ok := m.indexes[strings.ToUpper(indexName)]
	if !ok || ci.fileStore == nil {
		return loblib.Stats{}, false
	}
	return ci.fileStore.Stats(), true
}

func metaTable(info extidx.IndexInfo) string { return info.DataTableName("META") }

// idx returns the per-index state, lazily reattaching from the index's
// meta table after a database reopen (the blob id is persisted there, so
// LOB- and file-backed chemistry indexes survive restarts).
func (m *Methods) idx(s extidx.Server, info extidx.IndexInfo) (*chemIdx, error) {
	m.mu.Lock()
	ci, ok := m.indexes[info.IndexName]
	m.mu.Unlock()
	if ok {
		return ci, nil
	}
	rows, err := s.Query(fmt.Sprintf(`SELECT v FROM %s WHERE k = 'blob'`, metaTable(info)))
	if err != nil || len(rows) != 1 {
		return nil, fmt.Errorf("chem: index %s does not exist", info.IndexName)
	}
	p, err := parseChemParams(info.Params)
	if err != nil {
		return nil, err
	}
	ci = &chemIdx{params: p, blobID: rows[0][0].Int64()}
	if p.file {
		fs, err := loblib.NewFileStore(p.dir, false)
		if err != nil {
			return nil, err
		}
		ci.fileStore = fs
	}
	m.mu.Lock()
	m.indexes[info.IndexName] = ci
	m.mu.Unlock()
	return ci, nil
}

// Create implements ODCIIndexCreate: allocate the blob and bulk-load it
// from the base table. The index is registered only once the build has
// succeeded, so a failed build leaves nothing behind for a retry to trip
// over.
func (m *Methods) Create(s extidx.Server, info extidx.IndexInfo) error {
	p, err := parseChemParams(info.Params)
	if err != nil {
		return err
	}
	m.mu.Lock()
	_, dup := m.indexes[info.IndexName]
	m.mu.Unlock()
	if dup {
		return fmt.Errorf("chem: index %s already exists", info.IndexName)
	}
	ci := &chemIdx{params: p}
	if p.file {
		if p.dir == "" {
			return fmt.Errorf("chem: :Storage file requires :Dir")
		}
		fs, err := loblib.NewFileStore(p.dir, false)
		if err != nil {
			return err
		}
		ci.fileStore = fs
	}
	id, err := ci.store(s).Create()
	if err != nil {
		return err
	}
	ci.blobID = id
	// Persist the blob locator so the index survives database reopen.
	if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE %s(k VARCHAR2, v NUMBER)`, metaTable(info))); err != nil {
		return err
	}
	if _, err := s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES ('blob', ?)`, metaTable(info)), types.Int(id)); err != nil {
		return err
	}

	rows, err := s.Query(fmt.Sprintf(`SELECT %s, ROWID FROM %s`, info.ColumnName, info.TableName))
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := m.insert(s, ci, r[1].Int64(), r[0]); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.indexes[info.IndexName] = ci
	m.mu.Unlock()
	return nil
}

// Alter implements ODCIIndexAlter.
func (m *Methods) Alter(s extidx.Server, info extidx.IndexInfo, newParams string) error {
	_, err := parseChemParams(newParams)
	return err
}

// Truncate implements ODCIIndexTruncate.
func (m *Methods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	ci, err := m.idx(s, info)
	if err != nil {
		return err
	}
	b, err := ci.store(s).Open(ci.blobID)
	if err != nil {
		return err
	}
	return b.Truncate(0)
}

// Drop implements ODCIIndexDrop.
func (m *Methods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	ci, err := m.idx(s, info)
	if err != nil {
		return err
	}
	if err := ci.store(s).Delete(ci.blobID); err != nil {
		return err
	}
	if _, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, metaTable(info))); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.indexes, info.IndexName)
	m.mu.Unlock()
	return nil
}

// Insert implements ODCIIndexInsert: append one record.
func (m *Methods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, newVal types.Value) error {
	ci, err := m.idx(s, info)
	if err != nil {
		return err
	}
	return m.insert(s, ci, rid, newVal)
}

// insert appends the record of one non-null molecule to the index blob.
func (m *Methods) insert(s extidx.Server, ci *chemIdx, rid int64, newVal types.Value) error {
	if newVal.IsNull() {
		return nil
	}
	mol, err := Parse(newVal.Text())
	if err != nil {
		return err
	}
	rec, err := encodeRecord(record{
		rid:    rid,
		smiles: mol.String(),
		fp:     mol.ComputeFP(),
		canon:  mol.CanonicalKey(),
		taut:   mol.TautomerKey(),
	})
	if err != nil {
		return err
	}
	b, err := ci.store(s).Open(ci.blobID)
	if err != nil {
		return err
	}
	end, err := b.Length()
	if err != nil {
		return err
	}
	if _, err := b.WriteAt(rec, end); err != nil {
		return err
	}
	if ci.fileStore != nil && ci.params.events {
		// Database events (§5): compensate the external write on abort
		// by tombstoning the record, which keeps any record another
		// transaction appended after it.
		s.OnTxnRollback(func() {
			if bb, err := ci.fileStore.Open(ci.blobID); err == nil {
				//vetx:ignore erraudit -- rollback hooks have no error channel; compensation is best-effort
				bb.WriteAt([]byte{1}, end+8)
			}
		})
	}
	return nil
}

// scanRecords streams every live record of the index.
func (m *Methods) scanRecords(s extidx.Server, ci *chemIdx, fn func(rec record, off int64) (bool, error)) error {
	b, err := ci.store(s).Open(ci.blobID)
	if err != nil {
		return err
	}
	length, err := b.Length()
	if err != nil {
		return err
	}
	const batch = 128
	buf := make([]byte, recordSize*batch)
	for off := int64(0); off < length; off += int64(len(buf)) {
		n, err := b.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return err
		}
		for p := 0; p+recordSize <= n; p += recordSize {
			rec := decodeRecord(buf[p : p+recordSize])
			if rec.dead {
				continue
			}
			keep, err := fn(rec, off+int64(p))
			if err != nil || !keep {
				return err
			}
		}
	}
	return nil
}

// Delete implements ODCIIndexDelete: tombstone the record in place.
func (m *Methods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal types.Value) error {
	ci, err := m.idx(s, info)
	if err != nil {
		return err
	}
	var deadOff int64 = -1
	err = m.scanRecords(s, ci, func(rec record, off int64) (bool, error) {
		if rec.rid == rid {
			deadOff = off
			return false, nil
		}
		return true, nil
	})
	if err != nil || deadOff < 0 {
		return err
	}
	b, err := ci.store(s).Open(ci.blobID)
	if err != nil {
		return err
	}
	if _, err := b.WriteAt([]byte{1}, deadOff+8); err != nil {
		return err
	}
	if ci.fileStore != nil && ci.params.events {
		s.OnTxnRollback(func() {
			if bb, err := ci.fileStore.Open(ci.blobID); err == nil {
				//vetx:ignore erraudit -- rollback hooks have no error channel; compensation is best-effort
				bb.WriteAt([]byte{0}, deadOff+8)
			}
		})
	}
	return nil
}

// Update implements ODCIIndexUpdate.
func (m *Methods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	if err := m.Delete(s, info, rid, oldVal); err != nil {
		return err
	}
	return m.Insert(s, info, rid, newVal)
}

type chemScanState struct {
	rids []int64
	anc  []types.Value
	pos  int
}

// Start implements ODCIIndexStart for the four chemistry operators.
func (m *Methods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	if !call.WantsTrue() {
		return nil, fmt.Errorf("chem: predicates must compare the operator to 1")
	}
	if len(call.Args) < 1 {
		return nil, fmt.Errorf("chem: missing query molecule")
	}
	ci, err := m.idx(s, info)
	if err != nil {
		return nil, err
	}
	query, err := Parse(call.Args[0].Text())
	if err != nil {
		return nil, err
	}
	qFP := query.ComputeFP()
	st := &chemScanState{}
	switch {
	case equalsFold(call.Name, OpExact):
		key := query.CanonicalKey()
		err = m.scanRecords(s, ci, func(rec record, _ int64) (bool, error) {
			if rec.canon == key {
				st.rids = append(st.rids, rec.rid)
				st.anc = append(st.anc, types.Num(1))
			}
			return true, nil
		})
	case equalsFold(call.Name, OpTautomer):
		key := query.TautomerKey()
		err = m.scanRecords(s, ci, func(rec record, _ int64) (bool, error) {
			if rec.taut == key {
				st.rids = append(st.rids, rec.rid)
				st.anc = append(st.anc, types.Num(1))
			}
			return true, nil
		})
	case equalsFold(call.Name, OpContains):
		err = m.scanRecords(s, ci, func(rec record, _ int64) (bool, error) {
			// Screen with the fingerprint, verify with subgraph matching.
			if !rec.fp.Superset(qFP) {
				return true, nil
			}
			mol, perr := Parse(rec.smiles)
			if perr != nil {
				return false, perr
			}
			if IsSubstructure(query, mol) {
				st.rids = append(st.rids, rec.rid)
				st.anc = append(st.anc, types.Num(1))
			}
			return true, nil
		})
	case equalsFold(call.Name, OpSimilar):
		if len(call.Args) != 2 {
			return nil, fmt.Errorf("chem: ChemSimilar takes (column, query, threshold)")
		}
		threshold := call.Args[1].Float()
		type hit struct {
			rid int64
			sim float64
		}
		var hits []hit
		err = m.scanRecords(s, ci, func(rec record, _ int64) (bool, error) {
			if sim := Tanimoto(rec.fp, qFP); sim >= threshold {
				hits = append(hits, hit{rid: rec.rid, sim: sim})
			}
			return true, nil
		})
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].sim != hits[j].sim {
				return hits[i].sim > hits[j].sim
			}
			return hits[i].rid < hits[j].rid
		})
		for _, h := range hits {
			st.rids = append(st.rids, h.rid)
			st.anc = append(st.anc, types.Num(h.sim))
		}
	default:
		return nil, fmt.Errorf("chem: unsupported operator %s", call.Name)
	}
	if err != nil {
		return nil, err
	}
	return extidx.StateValue{V: st}, nil
}

// Fetch implements ODCIIndexFetch; similarity rides along as ancillary.
func (m *Methods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	cs := st.(extidx.StateValue).V.(*chemScanState)
	remaining := len(cs.rids) - cs.pos
	n := remaining
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	res := extidx.FetchResult{
		RIDs:      cs.rids[cs.pos : cs.pos+n],
		Ancillary: cs.anc[cs.pos : cs.pos+n],
	}
	cs.pos += n
	res.Done = cs.pos >= len(cs.rids)
	return res, st, nil
}

// Close implements ODCIIndexClose.
func (m *Methods) Close(s extidx.Server, st extidx.ScanState) error { return nil }

func equalsFold(a, b string) bool { return strings.EqualFold(a, b) }

// ---------------------------------------------------------------------------
// Registration and setup

// SQL object names of the chemistry cartridge.
const (
	OpExact       = "ChemExact"
	OpContains    = "ChemContains"
	OpSimilar     = "ChemSimilar"
	OpTautomer    = "ChemTautomer"
	OpChemScore   = "ChemScore"
	IndexTypeName = "ChemIndexType"
	MethodsName   = "ChemIndexMethods"
	FuncExact     = "ChemExactFn"
	FuncContains  = "ChemContainsFn"
	FuncSimilar   = "ChemSimilarFn"
	FuncTautomer  = "ChemTautomerFn"
	FuncChemScore = "ChemScoreFn"
)

// Register installs the cartridge implementations.
func Register(db *engine.DB) (*Methods, error) {
	m := NewMethods()
	reg := db.Registry()
	if err := reg.RegisterMethods(MethodsName, m); err != nil {
		return nil, err
	}
	fns := map[string]extidx.Function{
		FuncExact:    molPredicate(func(a, b *Molecule, _ float64) bool { return a.CanonicalKey() == b.CanonicalKey() }),
		FuncTautomer: molPredicate(func(a, b *Molecule, _ float64) bool { return a.TautomerKey() == b.TautomerKey() }),
		FuncContains: molPredicate(func(a, b *Molecule, _ float64) bool { return IsSubstructure(b, a) }),
		FuncSimilar: molPredicate(func(a, b *Molecule, t float64) bool {
			return Tanimoto(a.ComputeFP(), b.ComputeFP()) >= t
		}),
		FuncChemScore: func([]types.Value) (types.Value, error) { return types.Null(), nil },
	}
	for name, fn := range fns {
		if err := reg.RegisterFunction(name, fn); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// molPredicate adapts a two-molecule predicate to a SQL function over
// notation strings; a trailing numeric argument (threshold) is passed
// through.
func molPredicate(pred func(mol, query *Molecule, threshold float64) bool) extidx.Function {
	return func(args []types.Value) (types.Value, error) {
		if len(args) < 2 {
			return types.Null(), fmt.Errorf("chem: operator takes (molecule, query, ...)")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Num(0), nil
		}
		mol, err := Parse(args[0].Text())
		if err != nil {
			return types.Null(), err
		}
		query, err := Parse(args[1].Text())
		if err != nil {
			return types.Null(), err
		}
		threshold := 0.0
		if len(args) >= 3 {
			threshold = args[2].Float()
		}
		if pred(mol, query, threshold) {
			return types.Num(1), nil
		}
		return types.Num(0), nil
	}
}

// Setup issues the cartridge DDL.
func Setup(s *engine.Session) error {
	stmts := []string{
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER USING %s`, OpExact, FuncExact),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER USING %s`, OpContains, FuncContains),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (VARCHAR2, VARCHAR2, NUMBER) RETURN NUMBER USING %s`, OpSimilar, FuncSimilar),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER USING %s`, OpTautomer, FuncTautomer),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (NUMBER) RETURN NUMBER USING %s ANCILLARY TO %s`, OpChemScore, FuncChemScore, OpSimilar),
		fmt.Sprintf(`CREATE INDEXTYPE %s FOR %s(VARCHAR2, VARCHAR2), %s(VARCHAR2, VARCHAR2), %s(VARCHAR2, VARCHAR2, NUMBER), %s(VARCHAR2, VARCHAR2) USING %s`,
			IndexTypeName, OpExact, OpContains, OpSimilar, OpTautomer, MethodsName),
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return err
		}
	}
	return nil
}
