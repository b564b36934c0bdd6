package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/extidx"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// Forced access paths (benchmark and test hooks; Oracle would use hints).
const (
	ForceAuto       = ""
	ForceFullScan   = "FULL"
	ForceDomainScan = "DOMAIN"
	ForceIndexScan  = "INDEX"
)

// SetForcedPath overrides the optimizer's access-path choice, like an
// Oracle hint: for a single-table query's table and for the rows an
// UPDATE or DELETE targets. Empty string restores cost-based choice.
func (s *Session) SetForcedPath(p string) { s.forced = p }

// splitConjuncts flattens the AND tree of a WHERE clause.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(sql.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// constEval evaluates an expression that must not reference columns
// (literals, binds, arithmetic over them); ok=false if it references rows.
func (s *Session) constEval(e sql.Expr, params []types.Value) (types.Value, bool) {
	c, err := exec.Compile(e, &exec.Schema{}, s, params)
	if err != nil {
		return types.Null(), false
	}
	v, err := c(nil)
	if err != nil {
		return types.Null(), false
	}
	return v, true
}

// tableBinding is one FROM entry resolved against the catalog.
type tableBinding struct {
	ref    sql.TableRef
	tbl    *catalog.Table
	schema *exec.Schema
	alias  string // effective qualifier
	// cols marks the table columns the statement reads; the heap-row
	// producers built for this binding decode only those and leave the
	// rest NULL. nil decodes every column, which is what DML target
	// selection keeps: UPDATE and index maintenance need whole rows.
	cols []bool
}

// heapScan returns a scan of pages of the binding's table.
func (tb *tableBinding) heapScan(pages []storage.PageID) *exec.HeapScan {
	scan := exec.NewHeapScan(tb.tbl.Heap, pages)
	scan.Cols = tb.cols
	return scan
}

// fetch returns the table-access stage reading rids from the binding's
// table.
func (tb *tableBinding) fetch(rids []int64) *exec.RIDFetch {
	return &exec.RIDFetch{Heap: tb.tbl.Heap, Src: exec.SliceRIDSource(rids), Cols: tb.cols}
}

// markReadColumns sets each binding's cols to the table columns sel
// reads: every column reference in its items, WHERE, GROUP BY, HAVING
// and ORDER BY that resolves in that binding (ROWID is never decoded,
// so it needs no mark). A bare * marks everything, t.* everything of
// t, and a reference that resolves in no binding marks everything
// everywhere, because over-marking is always safe. An ORDER BY name
// that matches an item's output name reads that item, which is marked
// already. A binding left reading every column gets nil.
func (s *Session) markReadColumns(tbs []*tableBinding, sel *sql.Select) {
	if s.decodeAll {
		return
	}
	for _, tb := range tbs {
		tb.cols = make([]bool, len(tb.tbl.Cols))
	}
	all := false
	markAll := func(tb *tableBinding) {
		for i := range tb.cols {
			tb.cols[i] = true
		}
	}
	mark := func(e sql.Expr) {
		sql.Walk(e, func(x sql.Expr) bool {
			cr, ok := x.(sql.ColumnRef)
			if !ok {
				return true
			}
			resolved := false
			for _, tb := range tbs {
				if i, err := tb.schema.Resolve(cr.Table, cr.Name); err == nil {
					resolved = true
					if i < len(tb.cols) {
						tb.cols[i] = true
					}
				}
			}
			all = all || !resolved
			return true
		})
	}
	for _, item := range sel.Items {
		if !item.Star {
			mark(item.Expr)
			continue
		}
		matched := false
		for _, tb := range tbs {
			if item.Table == "" || strings.EqualFold(item.Table, tb.alias) {
				markAll(tb)
				matched = true
			}
		}
		all = all || !matched
	}
	mark(sel.Where)
	for _, g := range sel.GroupBy {
		mark(g)
	}
	mark(sel.Having)
	for _, oi := range sel.OrderBy {
		if cr, ok := oi.Expr.(sql.ColumnRef); !ok || cr.Table != "" || !isItemName(sel, cr.Name) {
			mark(oi.Expr)
		}
	}
	for _, tb := range tbs {
		if all || !slices.Contains(tb.cols, false) {
			tb.cols = nil
		}
	}
}

// isItemName reports whether name is the output name of one of sel's
// non-star items, which an unqualified ORDER BY name refers to first.
func isItemName(sel *sql.Select, name string) bool {
	for i, item := range sel.Items {
		if !item.Star && strings.EqualFold(itemName(item, i), name) {
			return true
		}
	}
	return false
}

func (s *Session) bindTable(ref sql.TableRef) (*tableBinding, error) {
	tbl, ok := s.db.cat.Table(ref.Name)
	if !ok {
		return nil, fmt.Errorf("engine: table %s does not exist", ref.Name)
	}
	alias := ref.Alias
	if alias == "" {
		alias = ref.Name
	}
	sch := &exec.Schema{}
	for _, c := range tbl.Cols {
		sch.Cols = append(sch.Cols, exec.SchemaCol{Qualifier: alias, Name: c.Name})
	}
	sch.Cols = append(sch.Cols, exec.SchemaCol{Qualifier: alias, Name: exec.RowIDColumn})
	return &tableBinding{ref: ref, tbl: tbl, schema: sch, alias: alias}, nil
}

// ---------------------------------------------------------------------------
// Predicate classification

// sargInfo is a sargable built-in predicate: col relop const.
type sargInfo struct {
	colName  string
	op       string // =, <, <=, >, >=
	value    types.Value
	loValue  types.Value // BETWEEN
	hiValue  types.Value
	isRange2 bool // two-sided range from BETWEEN
}

// classifySarg recognizes col-relop-const and BETWEEN forms on the given
// table binding. A comparison with NULL is never true, so a NULL constant
// or bound is not sargable: the conjunct stays a filter and matches
// nothing, where an index probe on it would read the index's NULL keys
// (or, for = NULL, an unbounded range). Nor is a constant of another kind
// than the column's: the filter compares BOOLEAN with NUMBER through
// types.CoerceKind (so boolcol = 1 finds the TRUE rows), while index keys
// of different kinds never meet.
func (s *Session) classifySarg(e sql.Expr, tb *tableBinding, params []types.Value) (sargInfo, bool) {
	flip := map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
	probeable := func(cr sql.ColumnRef, v types.Value) bool {
		if v.IsNull() {
			return false
		}
		i := tb.tbl.ColIndex(cr.Name)
		return i < 0 || tb.tbl.Cols[i].Kind == v.Kind() // i < 0: ROWID
	}
	if bt, ok := e.(sql.Between); ok && !bt.Not {
		cr, ok := bt.X.(sql.ColumnRef)
		if !ok || !s.refOnTable(cr, tb) {
			return sargInfo{}, false
		}
		lo, ok1 := s.constEval(bt.Lo, params)
		hi, ok2 := s.constEval(bt.Hi, params)
		if !ok1 || !ok2 || !probeable(cr, lo) || !probeable(cr, hi) {
			return sargInfo{}, false
		}
		return sargInfo{colName: cr.Name, op: "BETWEEN", loValue: lo, hiValue: hi, isRange2: true}, true
	}
	b, ok := e.(sql.Binary)
	if !ok {
		return sargInfo{}, false
	}
	op := b.Op
	if _, rel := flip[op]; !rel {
		return sargInfo{}, false
	}
	if cr, ok := b.L.(sql.ColumnRef); ok && s.refOnTable(cr, tb) {
		if v, cok := s.constEval(b.R, params); cok && probeable(cr, v) {
			return sargInfo{colName: cr.Name, op: op, value: v}, true
		}
	}
	if cr, ok := b.R.(sql.ColumnRef); ok && s.refOnTable(cr, tb) {
		if v, cok := s.constEval(b.L, params); cok && probeable(cr, v) {
			return sargInfo{colName: cr.Name, op: flip[op], value: v}, true
		}
	}
	return sargInfo{}, false
}

func (s *Session) refOnTable(cr sql.ColumnRef, tb *tableBinding) bool {
	if cr.Table != "" && !strings.EqualFold(cr.Table, tb.alias) {
		return false
	}
	return tb.tbl.ColIndex(cr.Name) >= 0 || strings.EqualFold(cr.Name, exec.RowIDColumn)
}

// opPredicate is a user-defined-operator predicate eligible for domain
// index evaluation: op(col, args...) relop bound.
type opPredicate struct {
	opName  string
	colName string
	args    []types.Value // non-column arguments (label removed)
	relop   extidx.CompareOp
	bound   types.Value
	label   int64
}

// classifyOpPred recognizes user-operator predicates in the forms
// op(col, ...), op(col, ...) relop const, and const relop op(col, ...).
func (s *Session) classifyOpPred(e sql.Expr, tb *tableBinding, params []types.Value) (opPredicate, bool) {
	call, relop, bound, ok := s.splitOpComparison(e, params)
	if !ok {
		return opPredicate{}, false
	}
	op, ok := s.db.cat.Operator(call.Name)
	if !ok || op.AncillaryTo != "" {
		return opPredicate{}, false
	}
	if len(call.Args) == 0 {
		return opPredicate{}, false
	}
	cr, ok := call.Args[0].(sql.ColumnRef)
	if !ok || !s.refOnTable(cr, tb) {
		return opPredicate{}, false
	}
	pred := opPredicate{opName: op.Name, colName: cr.Name, relop: relop, bound: bound}
	rest := call.Args[1:]
	// A trailing numeric literal beyond the binding arity is an ancillary
	// label (Contains(col, 'kw', 1) pairs with Score(1)).
	arity := len(call.Args)
	maxArity := 0
	for _, b := range op.Bindings {
		if len(b.ArgKinds) > maxArity {
			maxArity = len(b.ArgKinds)
		}
	}
	if arity == maxArity+1 && len(rest) > 0 {
		if lit, ok := rest[len(rest)-1].(sql.Literal); ok && lit.Value.Kind() == types.KindNumber {
			pred.label = lit.Value.Int64()
			rest = rest[:len(rest)-1]
		}
	}
	for _, a := range rest {
		v, cok := s.constEval(a, params)
		if !cok {
			return opPredicate{}, false // non-constant extra args: functional only
		}
		pred.args = append(pred.args, v)
	}
	return pred, true
}

// splitOpComparison separates an operator call from its return-value
// bound. A bare call means "operator is true", normalized to = 1 per the
// paper's footnote.
func (s *Session) splitOpComparison(e sql.Expr, params []types.Value) (sql.Call, extidx.CompareOp, types.Value, bool) {
	if c, ok := e.(sql.Call); ok {
		return c, extidx.CmpEQ, types.Num(1), true
	}
	b, ok := e.(sql.Binary)
	if !ok {
		return sql.Call{}, 0, types.Null(), false
	}
	rel := map[string]extidx.CompareOp{"=": extidx.CmpEQ, "<": extidx.CmpLT, "<=": extidx.CmpLE, ">": extidx.CmpGT, ">=": extidx.CmpGE}
	flip := map[extidx.CompareOp]extidx.CompareOp{extidx.CmpEQ: extidx.CmpEQ, extidx.CmpLT: extidx.CmpGT, extidx.CmpLE: extidx.CmpGE, extidx.CmpGT: extidx.CmpLT, extidx.CmpGE: extidx.CmpLE}
	ro, ok := rel[b.Op]
	if !ok {
		return sql.Call{}, 0, types.Null(), false
	}
	if c, ok := b.L.(sql.Call); ok {
		if v, cok := s.constEval(b.R, params); cok {
			return c, ro, v, true
		}
	}
	if c, ok := b.R.(sql.Call); ok {
		if v, cok := s.constEval(b.L, params); cok {
			return c, flip[ro], v, true
		}
	}
	return sql.Call{}, 0, types.Null(), false
}

// ---------------------------------------------------------------------------
// Access paths

type accessPath struct {
	kind     string
	desc     string
	cost     float64
	estRows  float64
	sel      float64 // predicate selectivity behind estRows; < 0 unknown
	batch    int     // fetch/chunk batch size picked for the scan; 0 = n/a
	consumed int     // index into conjuncts consumed by this path, -1 = none
	parallel int     // degree the access will run at; <= 1 serial
	build    func() (exec.Iterator, error)

	// Parallel eligibility — at most one is set. parHeap marks a full
	// scan splittable into page-range morsels; parDom carries what
	// buildParallelTableAccess needs to open partitioned ODCI scans on a
	// cartridge implementing extidx.ParallelMethods. Paths with neither
	// always build serially.
	parHeap *storage.Heap
	parDom  *domainParallel
}

// domainParallel is the parallel-eligibility record of a DOMAIN path:
// everything needed to open one ODCI scan partition per morsel outside
// the serial build closure.
type domainParallel struct {
	pm    extidx.ParallelMethods
	m     extidx.IndexMethods
	info  extidx.IndexInfo
	call  extidx.OperatorCall
	table string
	heap  *storage.Heap
	batch int
}

// tableStats derives the optimizer inputs.
func tableStats(tbl *catalog.Table) (rows float64, pages float64) {
	rows = float64(tbl.RowCount)
	if rows < 1 {
		rows = 1
	}
	pages = float64(tbl.Heap.NumPages())
	if pages < 1 {
		pages = 1
	}
	return rows, pages
}

const cpuPerRow = 0.01 // full-scan per-row CPU (decode + predicate), in page-cost units

// fullScanPath is always available; conjuncts all become filters above it.
func (s *Session) fullScanPath(tb *tableBinding) accessPath {
	rows, pages := tableStats(tb.tbl)
	return accessPath{
		kind:     "FULL",
		desc:     fmt.Sprintf("TABLE ACCESS FULL %s", strings.ToUpper(tb.tbl.Name)),
		cost:     pages + rows*cpuPerRow,
		estRows:  rows,
		sel:      1,
		batch:    exec.DefaultChunkSize,
		consumed: -1,
		parHeap:  tb.tbl.Heap,
		build: func() (exec.Iterator, error) {
			return tb.heapScan(tb.tbl.Heap.PageList()), nil
		},
	}
}

func indexSelectivity(ix *catalog.Index, tbl *catalog.Table, sg sargInfo) float64 {
	rows, _ := tableStats(tbl)
	distinct := float64(ix.DistinctKeys)
	if ix.Kind == catalog.BitmapIndex && ix.BM != nil {
		distinct = float64(ix.BM.Cardinality())
	}
	if distinct <= 0 {
		if ix.Unique {
			distinct = rows
		} else {
			distinct = rows / 10
		}
		if distinct < 1 {
			distinct = 1
		}
	}
	switch sg.op {
	case "=":
		return 1 / distinct
	case "BETWEEN":
		if frac, ok := rangeFraction(ix, sg.loValue, sg.hiValue); ok {
			return frac
		}
		return 0.1
	case "<", "<=":
		if frac, ok := rangeFraction(ix, types.Num(ix.MinVal), sg.value); ok {
			return frac
		}
		return 0.3
	case ">", ">=":
		if frac, ok := rangeFraction(ix, sg.value, types.Num(ix.MaxVal)); ok {
			return frac
		}
		return 0.3
	default:
		return 0.3
	}
}

// rangeFraction estimates range-predicate selectivity from the index's
// observed numeric min/max, assuming a uniform value distribution.
func rangeFraction(ix *catalog.Index, lo, hi types.Value) (float64, bool) {
	if !ix.HasRange || lo.Kind() != types.KindNumber || hi.Kind() != types.KindNumber {
		return 0, false
	}
	span := ix.MaxVal - ix.MinVal
	if span <= 0 {
		return 1, true
	}
	l, h := lo.Float(), hi.Float()
	if l < ix.MinVal {
		l = ix.MinVal
	}
	if h > ix.MaxVal {
		h = ix.MaxVal
	}
	if h < l {
		return 0.0005, true
	}
	frac := (h - l) / span
	if frac < 0.0005 {
		frac = 0.0005
	}
	if frac > 1 {
		frac = 1
	}
	return frac, true
}

// builtinIndexPaths proposes B-tree / hash / bitmap access for sargable
// conjuncts.
func (s *Session) builtinIndexPaths(tb *tableBinding, conjuncts []sql.Expr, params []types.Value) []accessPath {
	var out []accessPath
	rows, _ := tableStats(tb.tbl)
	for ci, e := range conjuncts {
		sg, ok := s.classifySarg(e, tb, params)
		if !ok {
			continue
		}
		for _, ix := range s.db.cat.TableIndexes(tb.tbl.Name) {
			if !strings.EqualFold(ix.Column, sg.colName) {
				continue
			}
			ix := ix
			sg := sg
			ci := ci
			switch ix.Kind {
			case catalog.BTreeIndex:
				sel := indexSelectivity(ix, tb.tbl, sg)
				out = append(out, accessPath{
					kind:     "BTREE",
					desc:     fmt.Sprintf("INDEX %s SCAN %s (%s %s)", ix.Kind, strings.ToUpper(ix.Name), sg.colName, sg.op),
					cost:     3 + sel*rows*1.2,
					estRows:  sel * rows,
					sel:      sel,
					batch:    exec.DefaultChunkSize,
					consumed: ci,
					build:    func() (exec.Iterator, error) { return s.buildBTreeScan(tb, ix, sg) },
				})
			case catalog.HashIndex:
				if sg.op != "=" {
					continue
				}
				sel := indexSelectivity(ix, tb.tbl, sg)
				out = append(out, accessPath{
					kind:     "HASH",
					desc:     fmt.Sprintf("INDEX HASH LOOKUP %s (%s =)", strings.ToUpper(ix.Name), sg.colName),
					cost:     1.5 + sel*rows*1.1,
					estRows:  sel * rows,
					sel:      sel,
					batch:    exec.DefaultChunkSize,
					consumed: ci,
					build:    func() (exec.Iterator, error) { return s.buildHashScan(tb, ix, sg) },
				})
			case catalog.BitmapIndex:
				if sg.op != "=" {
					continue
				}
				sel := indexSelectivity(ix, tb.tbl, sg)
				out = append(out, accessPath{
					kind:     "BITMAP",
					desc:     fmt.Sprintf("BITMAP INDEX %s (%s =)", strings.ToUpper(ix.Name), sg.colName),
					cost:     1 + sel*rows*1.05,
					estRows:  sel * rows,
					sel:      sel,
					batch:    exec.DefaultChunkSize,
					consumed: ci,
					build:    func() (exec.Iterator, error) { return s.buildBitmapScan(tb, ix, sg) },
				})
			}
		}
	}
	return out
}

// buildBTreeScan fetches the rows whose key lies in sg's range. A NULL
// lo or hi here means that side is unbounded (classifySarg passes no
// NULL constant). Keys of every kind share the tree, ordered by their
// leading kind tag with NULL (0xFF) last, while SQL comparison across
// kinds or with NULL is never true, so the scan stays inside its
// bounds' tag: an open range never reaches another kind or the NULLs.
func (s *Session) buildBTreeScan(tb *tableBinding, ix *catalog.Index, sg sargInfo) (exec.Iterator, error) {
	var rids []int64
	var entry []types.Value
	emit := func(val []byte) (err error) {
		if entry, _, err = types.AppendDecoded(entry[:0], val, nil); err != nil {
			return err
		}
		rids = append(rids, entry[0].Int64())
		return nil
	}
	var lo, hi types.Value
	loOpen, hiOpen := false, false
	switch sg.op {
	case "=":
		lo, hi = sg.value, sg.value
	case "BETWEEN":
		lo, hi = sg.loValue, sg.hiValue
	case "<":
		hi, hiOpen = sg.value, true
	case "<=":
		hi = sg.value
	case ">":
		lo, loOpen = sg.value, true
	case ">=":
		lo = sg.value
	}
	var loKey, hiKey []byte
	if !lo.IsNull() {
		loKey = types.EncodeKey(nil, lo)
	}
	if !hi.IsNull() {
		hiKey = types.EncodeKey(nil, hi)
	}
	var tag byte
	switch {
	case loKey != nil && hiKey != nil && loKey[0] != hiKey[0], loKey == nil && hiKey == nil:
		return &exec.Slice{}, nil
	case loKey != nil:
		tag = loKey[0]
	default:
		tag = hiKey[0]
	}
	start := loKey
	if start == nil {
		start = []byte{tag}
	}
	for it := ix.BT.Seek(start); it.Valid(); it.Next() {
		// Decode the column-value prefix by comparing against bounds; keys
		// are orderable byte strings, so bound checks work on prefixes.
		key := it.Key()
		if key[0] != tag {
			break
		}
		if loOpen && bytes.HasPrefix(key, loKey) {
			continue
		}
		if hiKey != nil {
			cmp := bytes.Compare(keyPrefix(key, len(hiKey)), hiKey)
			if cmp > 0 || (hiOpen && cmp == 0) {
				break
			}
		}
		if err := emit(it.Value()); err != nil {
			return nil, err
		}
	}
	return tb.fetch(rids), nil
}

func keyPrefix(key []byte, n int) []byte {
	if len(key) < n {
		return key
	}
	return key[:n]
}

func (s *Session) buildHashScan(tb *tableBinding, ix *catalog.Index, sg sargInfo) (exec.Iterator, error) {
	vals, err := ix.HX.Lookup(types.EncodeKey(nil, sg.value))
	if err != nil {
		return nil, err
	}
	rids := make([]int64, 0, len(vals))
	var entry []types.Value
	for _, v := range vals {
		if entry, _, err = types.AppendDecoded(entry[:0], v, nil); err != nil {
			return nil, err
		}
		rids = append(rids, entry[0].Int64())
	}
	return tb.fetch(rids), nil
}

func (s *Session) buildBitmapScan(tb *tableBinding, ix *catalog.Index, sg sargInfo) (exec.Iterator, error) {
	bm := ix.BM.Lookup(types.EncodeKey(nil, sg.value))
	var rids []int64
	if bm != nil {
		bm.Each(func(pos uint64) bool {
			rids = append(rids, int64(pos))
			return true
		})
	}
	return tb.fetch(rids), nil
}

// domainPaths proposes domain index scans for user-operator conjuncts.
// This is §2.4.2: the predicate qualifies if the operator's first argument
// is a column with a domain index whose indextype supports the operator;
// the choice against other paths is made by cost, consulting the
// user-supplied ODCIStats routines when registered.
func (s *Session) domainPaths(tb *tableBinding, conjuncts []sql.Expr, params []types.Value) []accessPath {
	var out []accessPath
	rows, _ := tableStats(tb.tbl)
	for ci, e := range conjuncts {
		pred, ok := s.classifyOpPred(e, tb, params)
		if !ok {
			continue
		}
		for _, ix := range s.db.cat.TableIndexes(tb.tbl.Name) {
			if ix.Kind != catalog.DomainIndex || !strings.EqualFold(ix.Column, pred.colName) {
				continue
			}
			it, ok := s.db.cat.IndexType(ix.IndexType)
			if !ok || !it.Supports(pred.opName, len(pred.args)+1) {
				continue
			}
			m, _, err := s.indexMethodsFor(ix)
			if err != nil {
				continue
			}
			ix := ix
			pred := pred
			ci := ci
			call := extidx.OperatorCall{Name: pred.opName, Args: pred.args, Relop: pred.relop, Bound: pred.bound}
			info := infoFor(ix, tb.tbl)

			sel := 0.05
			cost := extidx.Cost{IO: 2 + sel*rows, CPU: sel * rows}
			if it.StatsName != "" {
				if sm, ok := s.db.reg.Stats(it.StatsName); ok {
					srv := s.server(extidx.ModeScan, ix.Table)
					if userSel, err := sm.Selectivity(srv, info, call); err == nil && userSel >= 0 && userSel <= 1 {
						sel = userSel
					}
					if userCost, err := sm.IndexCost(srv, info, call, sel); err == nil {
						cost = userCost
					} else {
						cost = extidx.Cost{IO: 2 + sel*rows, CPU: sel * rows}
					}
				}
			}
			batch := s.db.DefaultFetchBatch
			ap := accessPath{
				kind:     "DOMAIN",
				desc:     fmt.Sprintf("DOMAIN INDEX %s (%s via %s)", strings.ToUpper(ix.Name), pred.opName, ix.IndexType),
				cost:     cost.Total(),
				estRows:  sel * rows,
				sel:      sel,
				batch:    batch,
				consumed: ci,
				build: func() (exec.Iterator, error) {
					return &exec.DomainScan{
						Methods:   m,
						Server:    s.server(extidx.ModeScan, ix.Table),
						Info:      info,
						Call:      call,
						Heap:      tb.tbl.Heap,
						Cols:      tb.cols,
						BatchSize: batch,
						Label:     pred.label,
						Sink:      s,
					}, nil
				},
			}
			// Parallel-eligible only when the cartridge opts in via
			// ParallelMethods and the predicate carries no ancillary
			// label: ancillary values flow through the session's
			// unsynchronized per-row store, which worker goroutines
			// must not touch.
			if pm, ok := m.(extidx.ParallelMethods); ok && pred.label == 0 {
				ap.parDom = &domainParallel{
					pm: pm, m: m, info: info, call: call,
					table: ix.Table, heap: tb.tbl.Heap, batch: batch,
				}
			}
			out = append(out, ap)
		}
	}
	return out
}

// rowidPaths proposes direct row access for ROWID = <const> predicates
// (Oracle's TABLE ACCESS BY ROWID): the cheapest possible path.
func (s *Session) rowidPaths(tb *tableBinding, conjuncts []sql.Expr, params []types.Value) []accessPath {
	var out []accessPath
	for ci, e := range conjuncts {
		sg, ok := s.classifySarg(e, tb, params)
		if !ok || sg.op != "=" || !strings.EqualFold(sg.colName, exec.RowIDColumn) {
			continue
		}
		if sg.value.Kind() != types.KindNumber {
			continue
		}
		rid := sg.value.Int64()
		ci := ci
		out = append(out, accessPath{
			kind:     "ROWID",
			desc:     fmt.Sprintf("TABLE ACCESS BY ROWID %s", strings.ToUpper(tb.tbl.Name)),
			cost:     1,
			estRows:  1,
			sel:      -1,
			consumed: ci,
			build: func() (exec.Iterator, error) {
				// Tolerate a stale rowid: an equality probe on a row that
				// no longer exists yields zero rows, not an error.
				if _, err := tb.tbl.Heap.Get(storage.RIDFromInt64(rid)); err != nil {
					return &exec.Slice{}, nil
				}
				return tb.fetch([]int64{rid}), nil
			},
		})
	}
	return out
}

// choosePath picks the cheapest path, honoring the forced-path override.
// Every invocation records the candidate count and winning kind into the
// database planner stats; when a query trace is active all candidates
// (with costs and selectivities) are appended to it with the winner
// marked.
func (s *Session) choosePath(tb *tableBinding, conjuncts []sql.Expr, params []types.Value) accessPath {
	full := s.fullScanPath(tb)
	paths := []accessPath{full}
	paths = append(paths, s.rowidPaths(tb, conjuncts, params)...)
	paths = append(paths, s.builtinIndexPaths(tb, conjuncts, params)...)
	paths = append(paths, s.domainPaths(tb, conjuncts, params)...)

	chosen := -1
	switch s.forced {
	case ForceFullScan:
		chosen = 0
	case ForceDomainScan:
		for i, p := range paths {
			if p.kind == "DOMAIN" {
				chosen = i
				break
			}
		}
	case ForceIndexScan:
		bi := 0
		for i, p := range paths {
			if p.kind != "FULL" && p.kind != "DOMAIN" && (paths[bi].kind == "FULL" || p.cost < paths[bi].cost) {
				bi = i
			}
		}
		if paths[bi].kind != "FULL" {
			chosen = bi
		}
	}
	if chosen < 0 {
		chosen = 0
		for i, p := range paths {
			if p.cost < paths[chosen].cost {
				chosen = i
			}
		}
	}
	s.db.planner.RecordPlan(len(paths), paths[chosen].kind)
	if s.trace != nil {
		for i, p := range paths {
			s.trace.Candidates = append(s.trace.Candidates, obs.PlanCandidate{
				Kind:        p.kind,
				Desc:        p.desc,
				Cost:        p.cost,
				EstRows:     p.estRows,
				Selectivity: p.sel,
				Batch:       p.batch,
				Chosen:      i == chosen,
			})
		}
	}
	return paths[chosen]
}

// buildTableAccess assembles the iterator for one table: chosen access
// path plus residual filters, returning also the chosen path for EXPLAIN.
// Always serial — joins and UPDATE/DELETE target selection use it; the
// single-table SELECT branch goes through buildParallelTableAccess
// instead.
func (s *Session) buildTableAccess(tb *tableBinding, conjuncts []sql.Expr, params []types.Value) (exec.Iterator, accessPath, error) {
	path := s.choosePath(tb, conjuncts, params)
	it, err := s.assembleSerialAccess(tb, path, conjuncts, params)
	return it, path, err
}

// assembleSerialAccess builds the chosen path's iterator with residual
// filters stacked above it, all on the calling goroutine.
func (s *Session) assembleSerialAccess(tb *tableBinding, path accessPath, conjuncts []sql.Expr, params []types.Value) (exec.Iterator, error) {
	it, err := path.build()
	if err != nil {
		return nil, err
	}
	it = s.instrScan(it, path)
	residual := residualConjuncts(conjuncts, path.consumed)
	if len(residual) > 0 {
		pred, err := s.compileConjuncts(residual, tb.schema, params)
		if err != nil {
			return nil, errors.Join(err, it.Close())
		}
		it = &exec.Filter{Child: it, Pred: pred}
		it = s.instr(it, fmt.Sprintf("FILTER (%d predicates)", len(residual)), -1)
	}
	return it, nil
}

// residualConjuncts returns the conjuncts the access path did not
// consume — the predicates that must be filtered above the scan.
func residualConjuncts(conjuncts []sql.Expr, consumed int) []sql.Expr {
	var out []sql.Expr
	for i, e := range conjuncts {
		if i != consumed {
			out = append(out, e)
		}
	}
	return out
}

func (s *Session) compileConjuncts(conjuncts []sql.Expr, schema *exec.Schema, params []types.Value) (exec.Compiled, error) {
	comp := make([]exec.Compiled, len(conjuncts))
	for i, e := range conjuncts {
		c, err := exec.Compile(e, schema, s, params)
		if err != nil {
			return nil, err
		}
		comp[i] = c
	}
	return func(r exec.Row) (types.Value, error) {
		for _, c := range comp {
			v, err := c(r)
			if err != nil {
				return types.Null(), err
			}
			if !exec.Truthy(v) {
				return types.Bool(false), nil
			}
		}
		return types.Bool(true), nil
	}, nil
}

// exprRefsOnly reports whether every column reference in e resolves in
// schema.
func exprRefsOnly(e sql.Expr, schema *exec.Schema) bool {
	ok := true
	sql.Walk(e, func(x sql.Expr) bool {
		if cr, isRef := x.(sql.ColumnRef); isRef {
			_, err := schema.Resolve(cr.Table, cr.Name)
			ok = ok && err == nil
		}
		return ok
	})
	return ok
}

// eqJoinKey recognizes outer.col = inner.col conjuncts for index
// nested-loop joins, returning the outer-side expr and inner column name.
func eqJoinKey(e sql.Expr, outerSchema *exec.Schema, inner *tableBinding) (sql.Expr, string, bool) {
	b, ok := e.(sql.Binary)
	if !ok || b.Op != "=" {
		return nil, "", false
	}
	try := func(outerSide, innerSide sql.Expr) (sql.Expr, string, bool) {
		cr, ok := innerSide.(sql.ColumnRef)
		if !ok {
			return nil, "", false
		}
		if cr.Table == "" || !strings.EqualFold(cr.Table, inner.alias) {
			return nil, "", false
		}
		if inner.tbl.ColIndex(cr.Name) < 0 && !strings.EqualFold(cr.Name, exec.RowIDColumn) {
			return nil, "", false
		}
		if !exprRefsOnly(outerSide, outerSchema) {
			return nil, "", false
		}
		return outerSide, cr.Name, true
	}
	if oe, col, ok := try(b.L, b.R); ok {
		return oe, col, ok
	}
	return try(b.R, b.L)
}

// planJoin builds a left-deep nested-loop join over the FROM list in the
// given order, pushing per-table conjuncts down and using inner indexes
// for equality join keys where available.
func (s *Session) planJoin(tbs []*tableBinding, conjuncts []sql.Expr, params []types.Value) (exec.Iterator, *exec.Schema, []string, error) {
	var descs []string
	// Two-table case: if an operator join predicate can use a domain
	// index only with the tables in the opposite order (the operator's
	// first argument is a column of the FROM-list's first table), swap
	// them so the domain index drives the inner side.
	if len(tbs) == 2 && s.forced != ForceFullScan {
		hasDomain := func(outer, inner *tableBinding) bool {
			for _, e := range conjuncts {
				if !exprRefsOnly(e, outer.schema) && !exprRefsOnly(e, inner.schema) {
					if _, ok := s.classifyDomainJoin(e, outer.schema, inner, params); ok {
						return true
					}
				}
			}
			return false
		}
		if !hasDomain(tbs[0], tbs[1]) && hasDomain(tbs[1], tbs[0]) {
			tbs[0], tbs[1] = tbs[1], tbs[0]
		} else if !hasDomain(tbs[0], tbs[1]) && !hasDomain(tbs[1], tbs[0]) {
			// Similarly prefer the order that gives the inner side an
			// equality key (index lookup or ROWID fetch) — e.g. the
			// rewritten pre-8i join `docs d, results r WHERE d.rowid =
			// r.rid` wants the small result table outside and direct row
			// fetches inside.
			hasEq := func(outer, inner *tableBinding) bool {
				for _, e := range conjuncts {
					if exprRefsOnly(e, outer.schema) || exprRefsOnly(e, inner.schema) {
						continue
					}
					_, colName, ok := eqJoinKey(e, outer.schema, inner)
					if !ok {
						continue
					}
					if strings.EqualFold(colName, exec.RowIDColumn) {
						return true
					}
					for _, ix := range s.db.cat.TableIndexes(inner.tbl.Name) {
						if strings.EqualFold(ix.Column, colName) &&
							(ix.Kind == catalog.BTreeIndex || ix.Kind == catalog.HashIndex) {
							return true
						}
					}
				}
				return false
			}
			if !hasEq(tbs[0], tbs[1]) && hasEq(tbs[1], tbs[0]) {
				tbs[0], tbs[1] = tbs[1], tbs[0]
			}
		}
	}
	// Partition conjuncts per table (those referencing only that table).
	used := make([]bool, len(conjuncts))
	perTable := make([][]sql.Expr, len(tbs))
	for ci, e := range conjuncts {
		for ti, tb := range tbs {
			if exprRefsOnly(e, tb.schema) {
				perTable[ti] = append(perTable[ti], e)
				used[ci] = true
				break
			}
		}
	}

	it, path, err := s.buildTableAccess(tbs[0], perTable[0], params)
	if err != nil {
		return nil, nil, nil, err
	}
	descs = append(descs, path.desc)
	curSchema := tbs[0].schema

	for ti := 1; ti < len(tbs); ti++ {
		inner := tbs[ti]
		joined := exec.Concat(curSchema, inner.schema)
		// Find join conjuncts usable now: reference joined schema, not yet
		// used, and not inner-only.
		var joinConj []sql.Expr
		for ci, e := range conjuncts {
			if used[ci] {
				continue
			}
			if exprRefsOnly(e, joined) {
				joinConj = append(joinConj, e)
				used[ci] = true
			}
		}
		// Look for an indexed equality key on the inner table; a ROWID
		// equality join becomes a direct row fetch per outer row.
		var keyExpr sql.Expr
		var keyIdx *catalog.Index
		keyRowid := false
		var residualJoin []sql.Expr
		for _, e := range joinConj {
			if keyIdx == nil && !keyRowid {
				if oe, colName, ok := eqJoinKey(e, curSchema, inner); ok {
					if strings.EqualFold(colName, exec.RowIDColumn) {
						keyExpr, keyRowid = oe, true
						continue
					}
					for _, ix := range s.db.cat.TableIndexes(inner.tbl.Name) {
						if strings.EqualFold(ix.Column, colName) && (ix.Kind == catalog.BTreeIndex || ix.Kind == catalog.HashIndex) {
							keyExpr, keyIdx = oe, ix
							break
						}
					}
					if keyIdx != nil {
						continue
					}
				}
			}
			residualJoin = append(residualJoin, e)
		}

		// When no equality key exists, look for a user-operator join
		// predicate evaluable through a domain index on the inner table:
		// op(inner.col, <outer exprs...>). The paper allows user-defined
		// operators as join conditions; this turns the join into a nested
		// loop with an inner domain-index scan per outer row.
		var domJoin *domainJoinSpec
		if keyIdx == nil {
			var kept []sql.Expr
			for _, e := range residualJoin {
				if domJoin == nil {
					if dj, ok := s.classifyDomainJoin(e, curSchema, inner, params); ok {
						domJoin = dj
						continue
					}
				}
				kept = append(kept, e)
			}
			residualJoin = kept
		}

		innerConj := perTable[ti]
		var innerFactory func(outer exec.Row) (exec.Iterator, error)
		if domJoin != nil {
			innerPred, err := s.compileConjuncts(innerConj, inner.schema, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			dj := domJoin
			innerFactory = func(outer exec.Row) (exec.Iterator, error) {
				args := make([]types.Value, len(dj.argExprs))
				for i, c := range dj.argExprs {
					v, err := c(outer)
					if err != nil {
						return nil, err
					}
					args[i] = v
				}
				var inIt exec.Iterator = &exec.DomainScan{
					Methods:   dj.methods,
					Server:    s.server(extidx.ModeScan, inner.tbl.Name),
					Info:      dj.info,
					Call:      extidx.OperatorCall{Name: dj.opName, Args: args, Relop: dj.relop, Bound: dj.bound},
					Heap:      inner.tbl.Heap,
					Cols:      inner.cols,
					BatchSize: s.db.DefaultFetchBatch,
				}
				if len(innerConj) > 0 {
					inIt = &exec.Filter{Child: inIt, Pred: innerPred}
				}
				return inIt, nil
			}
			descs = append(descs, fmt.Sprintf("NESTED LOOPS (DOMAIN INDEX %s ON %s via %s)",
				strings.ToUpper(dj.info.IndexName), strings.ToUpper(inner.tbl.Name), dj.opName))
		} else if keyRowid {
			keyC, err := exec.Compile(keyExpr, curSchema, s, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			innerPred, err := s.compileConjuncts(innerConj, inner.schema, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			heap := inner.tbl.Heap
			innerFactory = func(outer exec.Row) (exec.Iterator, error) {
				kv, err := keyC(outer)
				if err != nil {
					return nil, err
				}
				if kv.Kind() != types.KindNumber {
					return &exec.Slice{}, nil
				}
				rid := kv.Int64()
				if _, err := heap.Get(storage.RIDFromInt64(rid)); err != nil {
					return &exec.Slice{}, nil // stale rowid matches nothing
				}
				var inIt exec.Iterator = inner.fetch([]int64{rid})
				if len(innerConj) > 0 {
					inIt = &exec.Filter{Child: inIt, Pred: innerPred}
				}
				return inIt, nil
			}
			descs = append(descs, fmt.Sprintf("NESTED LOOPS (BY ROWID ON %s)", strings.ToUpper(inner.tbl.Name)))
		} else if keyIdx != nil {
			keyC, err := exec.Compile(keyExpr, curSchema, s, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			innerPred, err := s.compileConjuncts(innerConj, inner.schema, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			ix := keyIdx
			innerFactory = func(outer exec.Row) (exec.Iterator, error) {
				kv, err := keyC(outer)
				if err != nil {
					return nil, err
				}
				var inIt exec.Iterator
				inIt, err = s.buildIndexEqLookup(inner, ix, kv)
				if err != nil {
					return nil, err
				}
				if len(innerConj) > 0 {
					inIt = &exec.Filter{Child: inIt, Pred: innerPred}
				}
				return inIt, nil
			}
			descs = append(descs, fmt.Sprintf("NESTED LOOPS (INDEX %s ON %s)", strings.ToUpper(keyIdx.Name), strings.ToUpper(inner.tbl.Name)))
		} else {
			descs = append(descs, fmt.Sprintf("NESTED LOOPS (FULL %s)", strings.ToUpper(inner.tbl.Name)))
			innerFactory = func(exec.Row) (exec.Iterator, error) {
				// The inner side replans per outer row at execution time;
				// suppress the trace so each row does not append fresh
				// operator nodes (the NESTED LOOPS node above accounts for
				// the whole inner side).
				saved := s.trace
				s.trace = nil
				inIt, _, err := s.buildTableAccess(inner, innerConj, params)
				s.trace = saved
				return inIt, err
			}
		}
		it = &exec.NestedLoopJoin{Outer: it, Inner: innerFactory}
		it = s.instr(it, descs[len(descs)-1], -1)
		if len(residualJoin) > 0 {
			pred, err := s.compileConjuncts(residualJoin, joined, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			it = &exec.Filter{Child: it, Pred: pred}
			it = s.instr(it, fmt.Sprintf("FILTER (%d join predicates)", len(residualJoin)), -1)
		}
		curSchema = joined
	}
	// Any conjunct not yet placed (e.g. referencing no table) filters at
	// the top.
	var rest []sql.Expr
	for ci, e := range conjuncts {
		if !used[ci] {
			rest = append(rest, e)
		}
	}
	if len(rest) > 0 {
		pred, err := s.compileConjuncts(rest, curSchema, params)
		if err != nil {
			return nil, nil, nil, errors.Join(err, it.Close())
		}
		it = &exec.Filter{Child: it, Pred: pred}
	}
	return it, curSchema, descs, nil
}

// buildIndexEqLookup probes ix for one outer row's join key. A NULL key
// equals nothing, and must not reach the probe: the index holds NULL
// keys, and to buildBTreeScan a NULL bound means "unbounded". A key of
// another kind than the column's is first turned into the key it equals
// under the join's comparison (types.CoerceKind); one that equals no key
// of the column's kind finds nothing.
func (s *Session) buildIndexEqLookup(tb *tableBinding, ix *catalog.Index, v types.Value) (exec.Iterator, error) {
	if i := tb.tbl.ColIndex(ix.Column); i >= 0 {
		v, _ = types.CoerceKind(v, tb.tbl.Cols[i].Kind)
	}
	if v.IsNull() {
		return &exec.Slice{}, nil
	}
	sg := sargInfo{colName: ix.Column, op: "=", value: v}
	switch ix.Kind {
	case catalog.BTreeIndex:
		return s.buildBTreeScan(tb, ix, sg)
	case catalog.HashIndex:
		return s.buildHashScan(tb, ix, sg)
	default:
		return nil, fmt.Errorf("engine: index %s not usable for lookup", ix.Name)
	}
}

// domainJoinSpec captures an operator join predicate routed to an inner
// domain index.
type domainJoinSpec struct {
	opName   string
	info     extidx.IndexInfo
	methods  extidx.IndexMethods
	argExprs []exec.Compiled // evaluated against the outer row
	relop    extidx.CompareOp
	bound    types.Value
}

// classifyDomainJoin recognizes op(inner.col, outerExpr...) [relop const]
// conjuncts with a supporting domain index on the inner column.
func (s *Session) classifyDomainJoin(e sql.Expr, outerSchema *exec.Schema, inner *tableBinding, params []types.Value) (*domainJoinSpec, bool) {
	call, relop, bound, ok := s.splitOpComparison(e, params)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	op, ok := s.db.cat.Operator(call.Name)
	if !ok || op.AncillaryTo != "" {
		return nil, false
	}
	cr, ok := call.Args[0].(sql.ColumnRef)
	if !ok || !s.refOnTable(cr, inner) {
		return nil, false
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, inner.alias) {
		return nil, false
	}
	// All other args must be computable from the outer row (or constants).
	rest := call.Args[1:]
	argExprs := make([]exec.Compiled, len(rest))
	for i, a := range rest {
		if !exprRefsOnly(a, outerSchema) {
			return nil, false
		}
		c, err := exec.Compile(a, outerSchema, s, params)
		if err != nil {
			return nil, false
		}
		argExprs[i] = c
	}
	for _, ix := range s.db.cat.TableIndexes(inner.tbl.Name) {
		if ix.Kind != catalog.DomainIndex || !strings.EqualFold(ix.Column, cr.Name) {
			continue
		}
		it, ok := s.db.cat.IndexType(ix.IndexType)
		if !ok || !it.Supports(op.Name, len(call.Args)) {
			continue
		}
		m, _, err := s.indexMethodsFor(ix)
		if err != nil {
			continue
		}
		return &domainJoinSpec{
			opName:   op.Name,
			info:     infoFor(ix, inner.tbl),
			methods:  m,
			argExprs: argExprs,
			relop:    relop,
			bound:    bound,
		}, true
	}
	return nil, false
}

// aggFns maps SQL aggregate names.
var aggFns = map[string]exec.AggKind{
	"COUNT": exec.AggCount, "SUM": exec.AggSum, "MIN": exec.AggMin,
	"MAX": exec.AggMax, "AVG": exec.AggAvg,
}

func isAggregate(e sql.Expr) bool {
	c, ok := e.(sql.Call)
	if !ok {
		return false
	}
	_, ok = aggFns[strings.ToUpper(c.Name)]
	return ok
}

// containsAggregate reports whether e calls an aggregate.
func containsAggregate(e sql.Expr) bool {
	found := false
	sql.Walk(e, func(x sql.Expr) bool {
		found = found || isAggregate(x)
		return !found
	})
	return found
}

// rewriteForAgg replaces aggregate calls and group-by expressions inside e
// with references to the aggregate output schema (G<i>/A<j> columns).
// specs accumulates the aggregate list.
func rewriteForAgg(e sql.Expr, groupBy []sql.Expr, specs *[]sql.Call) sql.Expr {
	for i, g := range groupBy {
		if reflect.DeepEqual(e, g) {
			return sql.ColumnRef{Name: fmt.Sprintf("G%d", i)}
		}
	}
	if c, ok := e.(sql.Call); ok && isAggregate(c) {
		for j, sp := range *specs {
			if reflect.DeepEqual(sp, c) {
				return sql.ColumnRef{Name: fmt.Sprintf("A%d", j)}
			}
		}
		*specs = append(*specs, c)
		return sql.ColumnRef{Name: fmt.Sprintf("A%d", len(*specs)-1)}
	}
	switch v := e.(type) {
	case sql.Unary:
		v.X = rewriteForAgg(v.X, groupBy, specs)
		return v
	case sql.Binary:
		v.L = rewriteForAgg(v.L, groupBy, specs)
		v.R = rewriteForAgg(v.R, groupBy, specs)
		return v
	case sql.Between:
		v.X = rewriteForAgg(v.X, groupBy, specs)
		v.Lo = rewriteForAgg(v.Lo, groupBy, specs)
		v.Hi = rewriteForAgg(v.Hi, groupBy, specs)
		return v
	case sql.InList:
		v.X = rewriteForAgg(v.X, groupBy, specs)
		for i := range v.List {
			v.List[i] = rewriteForAgg(v.List[i], groupBy, specs)
		}
		return v
	case sql.IsNull:
		v.X = rewriteForAgg(v.X, groupBy, specs)
		return v
	}
	return e
}
