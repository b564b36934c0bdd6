package vir

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/types"
)

// Methods implements extidx.IndexMethods for the VIR indextype. The
// index data table stores the coarse representation of every signature
// (plus the exact signature for phase 3), with a B-tree on the first
// coarse component to serve the phase-1 range query.
type Methods struct {
	mu sync.Mutex
	// LastPhases records candidate counts after each phase of the most
	// recent scan — the multi-level filtering statistic E4 reports.
	LastPhases PhaseCounts
}

// PhaseCounts are per-phase candidate counts of a 3-phase evaluation.
type PhaseCounts struct {
	Phase1 int // after coarse range query
	Phase2 int // after coarse lower-bound filter
	Phase3 int // exact matches
}

func sigTable(info extidx.IndexInfo) string { return info.DataTableName("S") }

// Create implements ODCIIndexCreate.
func (m *Methods) Create(s extidx.Server, info extidx.IndexInfo) error {
	if err := extidx.NoParams(IndexTypeName, info.Params); err != nil {
		return err
	}
	st := sigTable(info)
	cols := "rid NUMBER"
	for i := 0; i < CoarseDims; i++ {
		cols += fmt.Sprintf(", c%d NUMBER", i)
	}
	cols += ", sig VARCHAR2"
	if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE %s(%s)`, st, cols)); err != nil {
		return err
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX %s$C0 ON %s(c0)`, st, st)); err != nil {
		return err
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

// Alter implements ODCIIndexAlter: VIRIndexType defines no parameters.
func (m *Methods) Alter(s extidx.Server, info extidx.IndexInfo, newParams string) error {
	return extidx.NoParams(IndexTypeName, newParams)
}

// Truncate implements ODCIIndexTruncate.
func (m *Methods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s`, sigTable(info)))
	return err
}

// Drop implements ODCIIndexDrop.
func (m *Methods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	_, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, sigTable(info)))
	return err
}

// Insert implements ODCIIndexInsert.
func (m *Methods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, newVal types.Value) error {
	if newVal.IsNull() {
		return nil
	}
	sig, err := FromValue(newVal)
	if err != nil {
		return err
	}
	coarse := sig.Coarse()
	args := make([]types.Value, 0, CoarseDims+2)
	args = append(args, types.Int(rid))
	marks := "?"
	for i := 0; i < CoarseDims; i++ {
		args = append(args, types.Num(coarse[i]))
		marks += ", ?"
	}
	args = append(args, types.Str(sig.Encode()))
	marks += ", ?"
	_, err = s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (%s)`, sigTable(info), marks), args...)
	return err
}

// Delete implements ODCIIndexDelete.
func (m *Methods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal types.Value) error {
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE rid = ?`, sigTable(info)), types.Int(rid))
	return err
}

// Update implements ODCIIndexUpdate.
func (m *Methods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	if err := m.Delete(s, info, rid, oldVal); err != nil {
		return err
	}
	return m.Insert(s, info, rid, newVal)
}

type virCall struct {
	query     Signature
	weights   Weights
	threshold float64
}

func parseVIRCall(call extidx.OperatorCall) (virCall, error) {
	var vc virCall
	if !call.WantsTrue() {
		return vc, fmt.Errorf("vir: predicates must compare VIRSimilar to 1")
	}
	if len(call.Args) != 3 {
		return vc, fmt.Errorf("vir: VIRSimilar takes (signature, query, weights, threshold)")
	}
	sig, err := FromValue(call.Args[0])
	if err != nil {
		return vc, err
	}
	w, err := ParseWeights(call.Args[1].Text())
	if err != nil {
		return vc, err
	}
	vc.query = sig
	vc.weights = w
	vc.threshold = call.Args[2].Float()
	return vc, nil
}

type virScanState struct {
	rids []int64
	dist []types.Value
	pos  int
}

// Start implements ODCIIndexStart with the 3-phase evaluation.
func (m *Methods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	vc, err := parseVIRCall(call)
	if err != nil {
		return nil, err
	}
	st := sigTable(info)
	qCoarse := vc.query.Coarse()

	// Phase 1: range query on the indexed first coarse component.
	var rows [][]types.Value
	if r := Phase1Radius(vc.threshold, vc.weights); r >= 0 {
		rows, err = s.Query(fmt.Sprintf(`SELECT * FROM %s WHERE c0 BETWEEN ? AND ?`, st),
			types.Num(qCoarse[0]-r), types.Num(qCoarse[0]+r))
	} else {
		rows, err = s.Query(fmt.Sprintf(`SELECT * FROM %s`, st))
	}
	if err != nil {
		return nil, err
	}
	counts := PhaseCounts{Phase1: len(rows)}

	// Phase 2: admissible lower-bound distance on all coarse components.
	type cand struct {
		rid int64
		enc string
	}
	var cands []cand
	for _, r := range rows {
		var c [CoarseDims]float64
		for i := 0; i < CoarseDims; i++ {
			c[i] = r[1+i].Float()
		}
		if CoarseLowerBound(qCoarse, c, vc.weights) <= vc.threshold {
			cands = append(cands, cand{rid: r[0].Int64(), enc: r[1+CoarseDims].Text()})
		}
	}
	counts.Phase2 = len(cands)

	// Phase 3: exact signature comparison.
	state := &virScanState{}
	type hit struct {
		rid int64
		d   float64
	}
	var hits []hit
	for _, c := range cands {
		sig, err := Decode(c.enc)
		if err != nil {
			return nil, err
		}
		if d := Distance(sig, vc.query, vc.weights); d <= vc.threshold {
			hits = append(hits, hit{rid: c.rid, d: d})
		}
	}
	counts.Phase3 = len(hits)
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].rid < hits[j].rid
	})
	for _, h := range hits {
		state.rids = append(state.rids, h.rid)
		state.dist = append(state.dist, types.Num(h.d))
	}

	m.mu.Lock()
	m.LastPhases = counts
	m.mu.Unlock()
	return extidx.StateValue{V: state}, nil
}

// Phases returns the candidate counts of the most recent scan.
func (m *Methods) Phases() PhaseCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.LastPhases
}

// Fetch implements ODCIIndexFetch; the match distance rides along as
// ancillary data.
func (m *Methods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	vs := st.(extidx.StateValue).V.(*virScanState)
	remaining := len(vs.rids) - vs.pos
	n := remaining
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	res := extidx.FetchResult{
		RIDs:      vs.rids[vs.pos : vs.pos+n],
		Ancillary: vs.dist[vs.pos : vs.pos+n],
	}
	vs.pos += n
	res.Done = vs.pos >= len(vs.rids)
	return res, st, nil
}

// Close implements ODCIIndexClose.
func (m *Methods) Close(s extidx.Server, st extidx.ScanState) error { return nil }

// Stats implements extidx.StatsMethods: similarity thresholds are tight,
// so selectivity scales with threshold volume relative to the coarse
// spread.
type Stats struct{}

// Selectivity implements ODCIStatsSelectivity with a simple
// threshold-proportional estimate.
func (Stats) Selectivity(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (float64, error) {
	vc, err := parseVIRCall(call)
	if err != nil {
		return 0.05, nil
	}
	sel := vc.threshold / 100
	if sel < 0.001 {
		sel = 0.001
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
	// Phase 1 reads a slice of the coarse table; phase 3 compares few.
	return extidx.Cost{IO: 2 + sel*n*2, CPU: sel * n * 10}, nil
}

// ---------------------------------------------------------------------------
// Registration and setup

// SQL object names of the VIR cartridge.
const (
	OpSimilar     = "VIRSimilar"
	OpVIRScore    = "VIRScore"
	IndexTypeName = "VIRIndexType"
	MethodsName   = "VIRIndexMethods"
	StatsName     = "VIRStats"
	FuncSimilar   = "VIRSimilarFn"
	FuncVIRScore  = "VIRScoreFn"
)

// Register installs the cartridge implementations; the returned Methods
// instance exposes per-phase statistics to the benchmark harness.
func Register(db *engine.DB) (*Methods, error) {
	m := &Methods{}
	reg := db.Registry()
	if err := reg.RegisterMethods(MethodsName, m); err != nil {
		return nil, err
	}
	if err := reg.RegisterStats(StatsName, Stats{}); err != nil {
		return nil, err
	}
	if err := reg.RegisterFunction(FuncSimilar, funcSimilar); err != nil {
		return nil, err
	}
	if err := reg.RegisterFunction(FuncVIRScore, func([]types.Value) (types.Value, error) {
		return types.Null(), nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// funcSimilar is the functional implementation: the exact comparison the
// pre-8i release ran "as a filter predicate for every row".
func funcSimilar(args []types.Value) (types.Value, error) {
	if len(args) != 4 {
		return types.Null(), fmt.Errorf("vir: VIRSimilar takes (signature, query, weights, threshold)")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return types.Num(0), nil
	}
	a, err := FromValue(args[0])
	if err != nil {
		return types.Null(), err
	}
	q, err := FromValue(args[1])
	if err != nil {
		return types.Null(), err
	}
	w, err := ParseWeights(args[2].Text())
	if err != nil {
		return types.Null(), err
	}
	if Distance(a, q, w) <= args[3].Float() {
		return types.Num(1), nil
	}
	return types.Num(0), nil
}

// Setup issues the cartridge DDL.
func Setup(s *engine.Session) error {
	stmts := []string{
		fmt.Sprintf(`CREATE TYPE %s AS OBJECT (features VARRAY)`, TypeName),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (OBJECT, OBJECT, VARCHAR2, NUMBER) RETURN NUMBER USING %s`, OpSimilar, FuncSimilar),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (NUMBER) RETURN NUMBER USING %s ANCILLARY TO %s`, OpVIRScore, FuncVIRScore, OpSimilar),
		fmt.Sprintf(`CREATE INDEXTYPE %s FOR %s(OBJECT, OBJECT, VARCHAR2, NUMBER) USING %s WITH STATS %s`,
			IndexTypeName, OpSimilar, MethodsName, StatsName),
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return err
		}
	}
	return nil
}
