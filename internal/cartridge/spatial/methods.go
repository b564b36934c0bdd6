package spatial

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/rtree"
	"repro/internal/types"
)

// TileMethods implements extidx.IndexMethods with the tile index of
// §3.2.2: every geometry is tessellated into quadtree tile ranges stored
// in an engine table, plus a geometry side table for the exact filter.
// All index data lives inside the database and is manipulated through SQL
// callbacks.
type TileMethods struct{}

func tileTable(info extidx.IndexInfo) string { return info.DataTableName("T") }
func geomTable(info extidx.IndexInfo) string { return info.DataTableName("G") }

// Create implements ODCIIndexCreate.
func (m TileMethods) Create(s extidx.Server, info extidx.IndexInfo) error {
	if err := extidx.NoParams(IndexTypeName, info.Params); err != nil {
		return err
	}
	tt, gt := tileTable(info), geomTable(info)
	stmts := []string{
		fmt.Sprintf(`CREATE TABLE %s(lo NUMBER, hi NUMBER, rid NUMBER)`, tt),
		fmt.Sprintf(`CREATE INDEX %s$LO ON %s(lo)`, tt, tt),
		fmt.Sprintf(`CREATE TABLE %s(rid NUMBER, geom VARCHAR2)`, gt),
		fmt.Sprintf(`CREATE UNIQUE INDEX %s$RID ON %s(rid)`, gt, gt),
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return err
		}
	}
	rows, err := s.Query(fmt.Sprintf(`SELECT %s, ROWID FROM %s`, info.ColumnName, info.TableName))
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := m.Insert(s, info, r[1].Int64(), r[0]); err != nil {
			return err
		}
	}
	return nil
}

// Alter implements ODCIIndexAlter: the tile index defines no parameters.
func (TileMethods) Alter(s extidx.Server, info extidx.IndexInfo, newParams string) error {
	return extidx.NoParams(IndexTypeName, newParams)
}

// Truncate implements ODCIIndexTruncate.
func (TileMethods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	if _, err := s.Exec(fmt.Sprintf(`DELETE FROM %s`, tileTable(info))); err != nil {
		return err
	}
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s`, geomTable(info)))
	return err
}

// Drop implements ODCIIndexDrop.
func (TileMethods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	if _, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, tileTable(info))); err != nil {
		return err
	}
	_, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, geomTable(info)))
	return err
}

// Insert implements ODCIIndexInsert: tessellate and store.
func (TileMethods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, newVal types.Value) error {
	if newVal.IsNull() {
		return nil
	}
	g, err := FromValue(newVal)
	if err != nil {
		return err
	}
	// Store UNMERGED quadtree-aligned cells: alignment is what makes the
	// scan's ancestor-equality probes complete.
	for _, tr := range CoverCells(g) {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?)`, tileTable(info)),
			types.Int(tr.Lo), types.Int(tr.Hi), types.Int(rid)); err != nil {
			return err
		}
	}
	_, err = s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?)`, geomTable(info)),
		types.Int(rid), types.Str(g.Encode()))
	return err
}

// Delete implements ODCIIndexDelete.
func (TileMethods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal types.Value) error {
	if _, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE rid = ?`, tileTable(info)), types.Int(rid)); err != nil {
		return err
	}
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE rid = ?`, geomTable(info)), types.Int(rid))
	return err
}

// Update implements ODCIIndexUpdate.
func (m TileMethods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	if err := m.Delete(s, info, rid, oldVal); err != nil {
		return err
	}
	return m.Insert(s, info, rid, newVal)
}

// parseCall extracts the query geometry and (for Sdo_Relate) the mask.
func parseCall(call extidx.OperatorCall) (Geometry, Mask, bool, error) {
	if !call.WantsTrue() {
		return Geometry{}, 0, false, fmt.Errorf("spatial: predicates must compare the operator to 1")
	}
	if len(call.Args) < 1 {
		return Geometry{}, 0, false, fmt.Errorf("spatial: missing query geometry")
	}
	g, err := FromValue(call.Args[0])
	if err != nil {
		return Geometry{}, 0, false, err
	}
	switch {
	case equalsFold(call.Name, OpFilter):
		return g, 0, false, nil
	case equalsFold(call.Name, OpRelate):
		if len(call.Args) != 2 {
			return Geometry{}, 0, false, fmt.Errorf("spatial: Sdo_Relate takes (column, geometry, mask)")
		}
		mask, err := ParseMask(call.Args[1].Text())
		if err != nil {
			return Geometry{}, 0, false, err
		}
		return g, mask, true, nil
	}
	return Geometry{}, 0, false, fmt.Errorf("spatial: unsupported operator %s", call.Name)
}

func equalsFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 32
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// candidates runs the primary filter: tile-range intersection through the
// index data table. Quadtree alignment means a stored range intersects a
// query range iff one's Lo falls inside the other.
func candidates(s extidx.Server, info extidx.IndexInfo, q Geometry) ([]int64, error) {
	tt := tileTable(info)
	seen := map[int64]bool{}
	var out []int64
	add := func(rows [][]types.Value) {
		for _, r := range rows {
			rid := r[0].Int64()
			if !seen[rid] {
				seen[rid] = true
				out = append(out, rid)
			}
		}
	}
	// Two intervals intersect iff the one with the larger Lo starts
	// inside the other. Case (a): a stored cell starting inside a query
	// range — one indexed BETWEEN per range. Case (b): a stored cell
	// containing the query range's start — because stored cells are
	// quadtree-aligned, its Lo must be an ancestor base of that tile, so
	// a handful of indexed equality probes cover it.
	ranges := Cover(q)
	ancestorProbes := map[int64]int64{} // base -> smallest qlo it must reach
	for _, tr := range ranges {
		nested, err := s.Query(fmt.Sprintf(
			`SELECT rid FROM %s WHERE lo BETWEEN ? AND ?`, tt),
			types.Int(tr.Lo), types.Int(tr.Hi))
		if err != nil {
			return nil, err
		}
		add(nested)
		for _, base := range AncestorBases(tr.Lo) {
			if cur, ok := ancestorProbes[base]; !ok || tr.Lo < cur {
				ancestorProbes[base] = tr.Lo
			}
		}
	}
	for base, qlo := range ancestorProbes {
		containing, err := s.Query(fmt.Sprintf(
			`SELECT rid FROM %s WHERE lo = ? AND hi >= ?`, tt),
			types.Int(base), types.Int(qlo))
		if err != nil {
			return nil, err
		}
		add(containing)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

type tileScanState struct {
	rids []int64
	pos  int
}

// Start implements ODCIIndexStart: primary filter via tiles, then (for
// Sdo_Relate) the exact geometric filter over the candidate set — the
// two-stage evaluation §3.2.2 describes.
func (TileMethods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	q, mask, exact, err := parseCall(call)
	if err != nil {
		return nil, err
	}
	cands, err := candidates(s, info, q)
	if err != nil {
		return nil, err
	}
	st := &tileScanState{}
	if !exact {
		st.rids = cands
		return extidx.StateValue{V: st}, nil
	}
	gt := geomTable(info)
	for _, rid := range cands {
		rows, err := s.Query(fmt.Sprintf(`SELECT geom FROM %s WHERE rid = ?`, gt), types.Int(rid))
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			continue
		}
		g, err := Decode(rows[0][0].Text())
		if err != nil {
			return nil, err
		}
		if Relate(g, q, mask) {
			st.rids = append(st.rids, rid)
		}
	}
	return extidx.StateValue{V: st}, nil
}

// Fetch implements ODCIIndexFetch.
func (TileMethods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	ts := st.(extidx.StateValue).V.(*tileScanState)
	remaining := len(ts.rids) - ts.pos
	n := remaining
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	res := extidx.FetchResult{RIDs: ts.rids[ts.pos : ts.pos+n]}
	ts.pos += n
	res.Done = ts.pos >= len(ts.rids)
	return res, st, nil
}

// Close implements ODCIIndexClose.
func (TileMethods) Close(s extidx.Server, st extidx.ScanState) error { return nil }

// Stats implements extidx.StatsMethods for the tile indextype: query-area
// fraction of the domain as selectivity.
type Stats struct{}

// Selectivity implements ODCIStatsSelectivity.
func (Stats) Selectivity(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (float64, error) {
	q, _, _, err := parseCall(call)
	if err != nil {
		return 0.05, nil
	}
	bb := q.BBox()
	sel := bb.Area() / (Domain * Domain)
	if sel < 0.0001 {
		sel = 0.0001
	}
	if sel > 1 {
		sel = 1
	}
	return sel, nil
}

// IndexCost implements ODCIStatsIndexCost.
func (Stats) IndexCost(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall, sel float64) (extidx.Cost, error) {
	n, err := s.RowCountEstimate(info.TableName)
	if err != nil {
		return extidx.Cost{}, err
	}
	matches := sel * n
	return extidx.Cost{IO: 3 + matches, CPU: matches * 5}, nil
}

// ---------------------------------------------------------------------------
// R-tree indextype: index data OUTSIDE the database (§5 configuration).

// extIndex is one externally-stored R-tree index instance. mu guards
// tree and geoms: scans take it shared, while maintenance callbacks and
// the ':Events on' rollback handlers take it exclusively. The engine's
// locks do not cover them, because readers take neither admission nor
// the mutation window, and the handlers run beside them.
type extIndex struct {
	mu    sync.RWMutex
	tree  *rtree.Tree
	geoms map[int64]Geometry
}

// RTreeMethods implements extidx.IndexMethods with an in-process R-tree
// per index. Because the index data lives outside the database, the
// engine's transaction manager does not protect it: a rollback reverts
// the base table but not the tree. With the ':Events on' parameter the
// methods register rollback handlers (database events, §5) that undo
// their own changes, restoring consistency.
type RTreeMethods struct {
	mu      sync.Mutex
	indexes map[string]*extIndex
}

// NewRTreeMethods returns an empty external R-tree method set.
func NewRTreeMethods() *RTreeMethods {
	return &RTreeMethods{indexes: make(map[string]*extIndex)}
}

func (m *RTreeMethods) idx(info extidx.IndexInfo) (*extIndex, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.indexes[info.IndexName]
	if !ok {
		return nil, fmt.Errorf("spatial: external r-tree %s does not exist", info.IndexName)
	}
	return e, nil
}

// rtreeEvents parses the R-tree indextype's one directive, ':Events
// on|off' (default off). Anything else is an error, so a misspelt
// directive cannot leave the rollback handlers silently off.
func rtreeEvents(params string) (bool, error) {
	f := strings.Fields(params)
	switch {
	case len(f) == 0:
		return false, nil
	case len(f) == 2 && equalsFold(f[0], ":events") && (equalsFold(f[1], "on") || equalsFold(f[1], "off")):
		return equalsFold(f[1], "on"), nil
	}
	return false, fmt.Errorf("spatial: %s takes only ':Events on|off', got %q", RTreeTypeName, params)
}

// useEvents reports whether the index registers rollback handlers; its
// parameters were checked by Create or Alter.
func useEvents(info extidx.IndexInfo) bool {
	on, err := rtreeEvents(info.Params)
	return err == nil && on
}

// Create implements ODCIIndexCreate: build the external tree from the
// base table.
func (m *RTreeMethods) Create(s extidx.Server, info extidx.IndexInfo) error {
	if _, err := rtreeEvents(info.Params); err != nil {
		return err
	}
	m.mu.Lock()
	if _, dup := m.indexes[info.IndexName]; dup {
		m.mu.Unlock()
		return fmt.Errorf("spatial: external r-tree %s already exists", info.IndexName)
	}
	e := &extIndex{tree: rtree.New(), geoms: make(map[int64]Geometry)}
	m.indexes[info.IndexName] = e
	m.mu.Unlock()

	rows, err := s.Query(fmt.Sprintf(`SELECT %s, ROWID FROM %s`, info.ColumnName, info.TableName))
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range rows {
		if r[0].IsNull() {
			continue
		}
		g, err := FromValue(r[0])
		if err != nil {
			return err
		}
		rid := r[1].Int64()
		e.tree.Insert(g.BBox(), rid)
		e.geoms[rid] = g
	}
	return nil
}

// Alter implements ODCIIndexAlter: the new parameters take effect at
// the next maintenance callback.
func (m *RTreeMethods) Alter(s extidx.Server, info extidx.IndexInfo, newParams string) error {
	_, err := rtreeEvents(newParams)
	return err
}

// Truncate implements ODCIIndexTruncate.
func (m *RTreeMethods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	e, err := m.idx(info)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.tree = rtree.New()
	e.geoms = make(map[int64]Geometry)
	e.mu.Unlock()
	return nil
}

// Drop implements ODCIIndexDrop.
func (m *RTreeMethods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.indexes, info.IndexName)
	return nil
}

// Insert implements ODCIIndexInsert against the external store.
func (m *RTreeMethods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, newVal types.Value) error {
	if newVal.IsNull() {
		return nil
	}
	e, err := m.idx(info)
	if err != nil {
		return err
	}
	g, err := FromValue(newVal)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.tree.Insert(g.BBox(), rid)
	e.geoms[rid] = g
	e.mu.Unlock()
	if useEvents(info) {
		s.OnTxnRollback(func() {
			e.mu.Lock()
			e.tree.Delete(g.BBox(), rid)
			delete(e.geoms, rid)
			e.mu.Unlock()
		})
	}
	return nil
}

// Delete implements ODCIIndexDelete against the external store.
func (m *RTreeMethods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal types.Value) error {
	e, err := m.idx(info)
	if err != nil {
		return err
	}
	e.mu.Lock()
	g, ok := e.geoms[rid]
	if !ok {
		e.mu.Unlock()
		return nil
	}
	e.tree.Delete(g.BBox(), rid)
	delete(e.geoms, rid)
	e.mu.Unlock()
	if useEvents(info) {
		s.OnTxnRollback(func() {
			e.mu.Lock()
			e.tree.Insert(g.BBox(), rid)
			e.geoms[rid] = g
			e.mu.Unlock()
		})
	}
	return nil
}

// Update implements ODCIIndexUpdate against the external store.
func (m *RTreeMethods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	if err := m.Delete(s, info, rid, oldVal); err != nil {
		return err
	}
	return m.Insert(s, info, rid, newVal)
}

// Start implements ODCIIndexStart: R-tree search, then the exact filter.
func (m *RTreeMethods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	q, mask, exact, err := parseCall(call)
	if err != nil {
		return nil, err
	}
	e, err := m.idx(info)
	if err != nil {
		return nil, err
	}
	st := &tileScanState{}
	e.mu.RLock()
	for _, rid := range e.tree.SearchIDs(q.BBox()) {
		if exact && !Relate(e.geoms[rid], q, mask) {
			continue
		}
		st.rids = append(st.rids, rid)
	}
	e.mu.RUnlock()
	sort.Slice(st.rids, func(i, j int) bool { return st.rids[i] < st.rids[j] })
	return extidx.StateValue{V: st}, nil
}

// Fetch implements ODCIIndexFetch.
func (m *RTreeMethods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	return TileMethods{}.Fetch(s, st, maxRows)
}

// Close implements ODCIIndexClose.
func (m *RTreeMethods) Close(s extidx.Server, st extidx.ScanState) error { return nil }

// ---------------------------------------------------------------------------
// Registration, setup, legacy formulation

// SQL object names of the spatial cartridge.
const (
	OpRelate         = "Sdo_Relate"
	OpFilter         = "Sdo_Filter"
	IndexTypeName    = "SpatialIndexType"
	RTreeTypeName    = "SpatialRTreeType"
	MethodsName      = "SpatialTileMethods"
	RTreeMethodsName = "SpatialRTreeMethods"
	StatsName        = "SpatialStats"
	FuncRelate       = "SdoGeomRelate"
	FuncFilter       = "SdoGeomFilter"
	FuncRelateStr    = "GeomRelate"
)

// Register installs the cartridge implementations in the database
// registry.
func Register(db *engine.DB) error {
	reg := db.Registry()
	if err := reg.RegisterMethods(MethodsName, TileMethods{}); err != nil {
		return err
	}
	if err := reg.RegisterMethods(RTreeMethodsName, NewRTreeMethods()); err != nil {
		return err
	}
	if err := reg.RegisterStats(StatsName, Stats{}); err != nil {
		return err
	}
	if err := reg.RegisterFunction(FuncRelate, funcRelate); err != nil {
		return err
	}
	if err := reg.RegisterFunction(FuncFilter, funcFilter); err != nil {
		return err
	}
	return reg.RegisterFunction(FuncRelateStr, funcRelateStr)
}

// funcRelate is the functional implementation of Sdo_Relate over
// geometry object values.
func funcRelate(args []types.Value) (types.Value, error) {
	if len(args) != 3 {
		return types.Null(), fmt.Errorf("spatial: Sdo_Relate takes (geometry, geometry, mask)")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return types.Num(0), nil
	}
	a, err := FromValue(args[0])
	if err != nil {
		return types.Null(), err
	}
	b, err := FromValue(args[1])
	if err != nil {
		return types.Null(), err
	}
	mask, err := ParseMask(args[2].Text())
	if err != nil {
		return types.Null(), err
	}
	if Relate(a, b, mask) {
		return types.Num(1), nil
	}
	return types.Num(0), nil
}

// funcFilter is the functional implementation of Sdo_Filter (primary
// filter only: tile-range intersection).
func funcFilter(args []types.Value) (types.Value, error) {
	if len(args) != 2 {
		return types.Null(), fmt.Errorf("spatial: Sdo_Filter takes (geometry, geometry)")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return types.Num(0), nil
	}
	a, err := FromValue(args[0])
	if err != nil {
		return types.Null(), err
	}
	b, err := FromValue(args[1])
	if err != nil {
		return types.Null(), err
	}
	if RangesIntersect(Cover(a), Cover(b)) {
		return types.Num(1), nil
	}
	return types.Num(0), nil
}

// funcRelateStr evaluates relate over Encode()d geometry strings; the
// pre-8i legacy formulation uses it, since its index tables store
// serialized geometry.
func funcRelateStr(args []types.Value) (types.Value, error) {
	if len(args) != 3 {
		return types.Null(), fmt.Errorf("spatial: GeomRelate takes (geomStr, geomStr, mask)")
	}
	a, err := Decode(args[0].Text())
	if err != nil {
		return types.Null(), err
	}
	b, err := Decode(args[1].Text())
	if err != nil {
		return types.Null(), err
	}
	mask, err := ParseMask(args[2].Text())
	if err != nil {
		return types.Null(), err
	}
	if Relate(a, b, mask) {
		return types.Num(1), nil
	}
	return types.Num(0), nil
}

// Setup issues the cartridge's DDL: the geometry object type, the
// operators, and both indextypes.
func Setup(s *engine.Session) error {
	stmts := []string{
		fmt.Sprintf(`CREATE TYPE %s AS OBJECT (kind NUMBER, coords VARRAY)`, TypeName),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (OBJECT, OBJECT, VARCHAR2) RETURN NUMBER USING %s`, OpRelate, FuncRelate),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (OBJECT, OBJECT) RETURN NUMBER USING %s`, OpFilter, FuncFilter),
		fmt.Sprintf(`CREATE INDEXTYPE %s FOR %s(OBJECT, OBJECT, VARCHAR2), %s(OBJECT, OBJECT) USING %s WITH STATS %s`,
			IndexTypeName, OpRelate, OpFilter, MethodsName, StatsName),
		fmt.Sprintf(`CREATE INDEXTYPE %s FOR %s(OBJECT, OBJECT, VARCHAR2), %s(OBJECT, OBJECT) USING %s`,
			RTreeTypeName, OpRelate, OpFilter, RTreeMethodsName),
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return err
		}
	}
	return nil
}

// BuildLegacyIndex creates the pre-8i style user-visible index table
// <table>_SDOINDEX(gid, sdo_code, sdo_maxcode, geom) that end users had
// to query explicitly before the extensible indexing framework, as shown
// in §3.2.2's "prior to Oracle8i" query.
func BuildLegacyIndex(s *engine.Session, table, gidCol, geomCol string) (string, error) {
	idxTable := table + "_SDOINDEX"
	if _, err := s.Exec(fmt.Sprintf(
		`CREATE TABLE %s(gid NUMBER, sdo_code NUMBER, sdo_maxcode NUMBER, geom VARCHAR2)`, idxTable)); err != nil {
		return "", err
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX %s$CODE ON %s(sdo_code)`, idxTable, idxTable)); err != nil {
		return "", err
	}
	rs, err := s.Query(fmt.Sprintf(`SELECT %s, %s FROM %s`, gidCol, geomCol, table))
	if err != nil {
		return "", err
	}
	for _, r := range rs.Rows {
		if r[1].IsNull() {
			continue
		}
		g, err := FromValue(r[1])
		if err != nil {
			return "", err
		}
		enc := g.Encode()
		for _, tr := range Cover(g) {
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?, ?)`, idxTable),
				r[0], types.Int(tr.Lo), types.Int(tr.Hi), types.Str(enc)); err != nil {
				return "", err
			}
		}
	}
	return idxTable, nil
}

// LegacyOverlapQuery is the §3.2.2 "prior to Oracle8i" query the end user
// had to write by hand: an explicit self-join of the two index tables on
// tile ranges followed by the exact relate function. It returns the
// distinct (gidA, gidB) pairs.
func LegacyOverlapQuery(s *engine.Session, idxA, idxB, mask string) ([][]types.Value, error) {
	q := fmt.Sprintf(`SELECT DISTINCT r.gid, p.gid FROM %s r, %s p
		WHERE (r.sdo_code BETWEEN p.sdo_code AND p.sdo_maxcode
		    OR p.sdo_code BETWEEN r.sdo_code AND r.sdo_maxcode)
		  AND %s(r.geom, p.geom, ?) = 1`, idxA, idxB, FuncRelateStr)
	rs, err := s.Query(q, types.Str(mask))
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}
