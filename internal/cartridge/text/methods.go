package text

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/types"
)

// Methods implements extidx.IndexMethods for TextIndexType. The inverted
// index lives in an engine table DR$<index>$I(token, rid, freq) with a
// B-tree on token, created, maintained and searched exclusively through
// SQL server callbacks — the paper's cooperative-indexing design.
type Methods struct{}

// Stats implements extidx.StatsMethods for TextIndexType by querying the
// inverted index for document frequencies. Frequencies are cached after
// first use — like Oracle's dictionary statistics, they are collected
// periodically rather than recomputed per query, so estimation stays far
// cheaper than execution.
type Stats struct {
	mu sync.Mutex
	df map[string]float64 // "<index>\x00<token>" -> document frequency
}

func dataTable(info extidx.IndexInfo) string { return info.DataTableName("I") }

func tokenizerFor(info extidx.IndexInfo) (*Tokenizer, Params, error) {
	p, err := ParseParams(info.Params)
	if err != nil {
		return nil, p, err
	}
	return NewTokenizer(p), p, nil
}

// Create implements ODCIIndexCreate: build the index data table and
// populate it from the base table.
func (Methods) Create(s extidx.Server, info extidx.IndexInfo) error {
	tz, _, err := tokenizerFor(info)
	if err != nil {
		return err
	}
	dt := dataTable(info)
	if _, err := s.Exec(fmt.Sprintf(
		`CREATE TABLE %s(token VARCHAR2, rid NUMBER, freq NUMBER)`, dt)); err != nil {
		return err
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX %s$TOK ON %s(token)`, dt, dt)); err != nil {
		return err
	}
	rows, err := s.Query(fmt.Sprintf(`SELECT %s, ROWID FROM %s`, info.ColumnName, info.TableName))
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := indexDoc(s, tz, dt, r[1].Int64(), r[0]); err != nil {
			return err
		}
	}
	return nil
}

func indexDoc(s extidx.Server, tz *Tokenizer, dt string, rid int64, doc types.Value) error {
	if doc.IsNull() {
		return nil
	}
	tf := tz.TokenFreqs(doc.Text())
	ins := fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?)`, dt)
	// Deterministic order keeps benchmarks and tests stable.
	toks := make([]string, 0, len(tf))
	for tok := range tf {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		if _, err := s.Exec(ins, types.Str(tok), types.Int(rid), types.Int(int64(tf[tok]))); err != nil {
			return err
		}
	}
	return nil
}

// Alter implements ODCIIndexAlter: a parameters change (e.g. a new stop
// list) rebuilds the index contents under the new parameters.
func (m Methods) Alter(s extidx.Server, info extidx.IndexInfo, newParams string) error {
	if _, err := ParseParams(newParams); err != nil {
		return err
	}
	dt := dataTable(info)
	if _, err := s.Exec(fmt.Sprintf(`DELETE FROM %s`, dt)); err != nil {
		return err
	}
	info.Params = newParams
	tz, _, err := tokenizerFor(info)
	if err != nil {
		return err
	}
	rows, err := s.Query(fmt.Sprintf(`SELECT %s, ROWID FROM %s`, info.ColumnName, info.TableName))
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := indexDoc(s, tz, dt, r[1].Int64(), r[0]); err != nil {
			return err
		}
	}
	return nil
}

// Truncate implements ODCIIndexTruncate.
func (Methods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s`, dataTable(info)))
	return err
}

// Drop implements ODCIIndexDrop.
func (Methods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	_, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, dataTable(info)))
	return err
}

// Insert implements ODCIIndexInsert.
func (Methods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, newVal types.Value) error {
	tz, _, err := tokenizerFor(info)
	if err != nil {
		return err
	}
	return indexDoc(s, tz, dataTable(info), rid, newVal)
}

// Delete implements ODCIIndexDelete.
func (Methods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal types.Value) error {
	_, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE rid = ?`, dataTable(info)), types.Int(rid))
	return err
}

// Update implements ODCIIndexUpdate: delete the entries for the old value
// and insert entries for the new one, exactly as §2.2.3 describes.
func (m Methods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	if err := m.Delete(s, info, rid, oldVal); err != nil {
		return err
	}
	return m.Insert(s, info, rid, newVal)
}

// scanState is the text scan context.
type scanState struct {
	// Precomputed results (precompute mode, or lazy mode after first
	// fetch).
	rids   []int64
	scores []float64
	pos    int
	// Lazy mode: query saved for first-fetch evaluation.
	pending *lazyQuery
}

type lazyQuery struct {
	info  extidx.IndexInfo
	query Node
}

// Start implements ODCIIndexStart. Precompute mode evaluates the whole
// boolean expression here ("Precompute All": ranking needs the full
// result set); lazy mode defers evaluation to the first Fetch
// ("Incremental Computation" — better time-to-first-call when the
// consumer may not fetch at all).
func (Methods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	if !call.WantsTrue() {
		return nil, fmt.Errorf("text: Contains predicates must compare the operator to 1")
	}
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("text: Contains takes (column, query)")
	}
	tz, params, err := tokenizerFor(info)
	if err != nil {
		return nil, err
	}
	q, err := ParseQuery(call.Args[0].Text(), tz)
	if err != nil {
		return nil, err
	}
	st := &scanState{}
	if params.LazyScan {
		st.pending = &lazyQuery{info: info, query: q}
	} else {
		if err := evaluate(s, info, q, st); err != nil {
			return nil, err
		}
	}
	if params.UseHandle {
		return s.Workspace().Alloc(st), nil
	}
	return extidx.StateValue{V: st}, nil
}

// StartParallel implements the optional extidx.ParallelMethods
// extension. All server-callback work — evaluating the boolean
// expression against the inverted index — happens here, eagerly
// (partitioning requires the full result set, so lazy mode does not
// apply); the sorted (rid, score) arrays are then split into up to
// maxParts contiguous slices, one independent scan partition each.
// Partition Fetch and Close touch only their own slice and never call
// back into the server, satisfying the ParallelMethods contract.
// Partitions always use the value transport: handles would route every
// worker through the shared workspace for no benefit, since the state
// is already materialized.
func (Methods) StartParallel(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall, maxParts int) ([]extidx.ScanState, error) {
	if !call.WantsTrue() {
		return nil, fmt.Errorf("text: Contains predicates must compare the operator to 1")
	}
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("text: Contains takes (column, query)")
	}
	tz, _, err := tokenizerFor(info)
	if err != nil {
		return nil, err
	}
	q, err := ParseQuery(call.Args[0].Text(), tz)
	if err != nil {
		return nil, err
	}
	st := &scanState{}
	if err := evaluate(s, info, q, st); err != nil {
		return nil, err
	}
	if maxParts < 1 {
		maxParts = 1
	}
	per := (len(st.rids) + maxParts - 1) / maxParts
	if per < 1 {
		per = 1
	}
	parts := []extidx.ScanState{}
	for lo := 0; lo < len(st.rids); lo += per {
		hi := lo + per
		if hi > len(st.rids) {
			hi = len(st.rids)
		}
		parts = append(parts, extidx.StateValue{V: &scanState{
			rids:   st.rids[lo:hi],
			scores: st.scores[lo:hi],
		}})
	}
	if len(parts) == 0 {
		// Empty result: one empty partition keeps the exchange protocol
		// uniform (Fetch returns Done immediately).
		parts = append(parts, extidx.StateValue{V: &scanState{}})
	}
	return parts, nil
}

// evaluate runs the boolean expression against the inverted index via
// SQL callbacks and fills the state with (rid, score) pairs sorted by
// descending score (ties by rid).
func evaluate(s extidx.Server, info extidx.IndexInfo, q Node, st *scanState) error {
	scores, err := evalNode(s, dataTable(info), q)
	if err != nil {
		return err
	}
	if scores == nil {
		// Pure negation: fall back to scanning all rowids of the base
		// table minus the excluded set would require a full scan; the
		// paper's operators are positive, so reject.
		return fmt.Errorf("text: query must contain at least one positive term")
	}
	rids := make([]int64, 0, len(scores))
	for rid := range scores {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool {
		si, sj := scores[rids[i]], scores[rids[j]]
		if si != sj {
			return si > sj
		}
		return rids[i] < rids[j]
	})
	st.rids = rids
	st.scores = make([]float64, len(rids))
	for i, rid := range rids {
		st.scores[i] = scores[rid]
	}
	return nil
}

// evalNode returns rid → score for the subtree; nil means "all documents
// except ..." (pure negation), which only And can absorb.
func evalNode(s extidx.Server, dt string, n Node) (map[int64]float64, error) {
	switch x := n.(type) {
	case Term:
		rows, err := s.Query(fmt.Sprintf(`SELECT rid, freq FROM %s WHERE token = ?`, dt), types.Str(x.Token))
		if err != nil {
			return nil, err
		}
		out := make(map[int64]float64, len(rows))
		for _, r := range rows {
			out[r[0].Int64()] += r[1].Float()
		}
		return out, nil
	case And:
		var acc map[int64]float64
		var excluded []map[int64]float64
		for _, k := range x.Kids {
			if neg, ok := k.(Not); ok {
				ex, err := evalNode(s, dt, neg.Kid)
				if err != nil {
					return nil, err
				}
				if ex == nil {
					return nil, fmt.Errorf("text: double negation is not supported")
				}
				excluded = append(excluded, ex)
				continue
			}
			m, err := evalNode(s, dt, k)
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = m
				continue
			}
			next := make(map[int64]float64)
			for rid, sc := range acc {
				if sc2, ok := m[rid]; ok {
					next[rid] = sc + sc2
				}
			}
			acc = next
		}
		if acc == nil {
			return nil, nil // only negations
		}
		for _, ex := range excluded {
			for rid := range ex {
				delete(acc, rid)
			}
		}
		return acc, nil
	case Or:
		acc := make(map[int64]float64)
		for _, k := range x.Kids {
			m, err := evalNode(s, dt, k)
			if err != nil {
				return nil, err
			}
			if m == nil {
				return nil, fmt.Errorf("text: NOT is only supported under AND")
			}
			for rid, sc := range m {
				acc[rid] += sc
			}
		}
		return acc, nil
	case Not:
		return nil, nil
	}
	return nil, fmt.Errorf("text: unknown query node %T", n)
}

func getState(s extidx.Server, st extidx.ScanState) (*scanState, error) {
	switch v := st.(type) {
	case extidx.StateValue:
		return v.V.(*scanState), nil
	case extidx.StateHandle:
		e, err := s.Workspace().Get(v)
		if err != nil {
			return nil, err
		}
		return e.(*scanState), nil
	}
	return nil, fmt.Errorf("text: unexpected scan state %T", st)
}

// Fetch implements ODCIIndexFetch, returning a batch of rowids with the
// match score as ancillary data.
func (Methods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	ts, err := getState(s, st)
	if err != nil {
		return extidx.FetchResult{}, st, err
	}
	if ts.pending != nil {
		lq := ts.pending
		ts.pending = nil
		if err := evaluate(s, lq.info, lq.query, ts); err != nil {
			return extidx.FetchResult{}, st, err
		}
	}
	remaining := len(ts.rids) - ts.pos
	n := remaining
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	res := extidx.FetchResult{
		RIDs:      ts.rids[ts.pos : ts.pos+n],
		Ancillary: make([]types.Value, n),
	}
	for i := 0; i < n; i++ {
		res.Ancillary[i] = types.Num(ts.scores[ts.pos+i])
	}
	ts.pos += n
	res.Done = ts.pos >= len(ts.rids)
	return res, st, nil
}

// Close implements ODCIIndexClose.
func (Methods) Close(s extidx.Server, st extidx.ScanState) error {
	if h, ok := st.(extidx.StateHandle); ok {
		s.Workspace().Free(h)
	}
	return nil
}

// Collect implements extidx.StatsCollector (ODCIStatsCollect): ANALYZE
// discards this index's cached document frequencies so future estimates
// reflect the current index contents.
func (st *Stats) Collect(s extidx.Server, info extidx.IndexInfo) error {
	prefix := info.IndexName + "\x00"
	st.mu.Lock()
	for k := range st.df {
		if strings.HasPrefix(k, prefix) {
			delete(st.df, k)
		}
	}
	st.mu.Unlock()
	return nil
}

func (st *Stats) termDF(s extidx.Server, info extidx.IndexInfo, token string) float64 {
	key := info.IndexName + "\x00" + token
	st.mu.Lock()
	if st.df == nil {
		st.df = make(map[string]float64)
	}
	if v, ok := st.df[key]; ok {
		st.mu.Unlock()
		return v
	}
	st.mu.Unlock()
	rows, err := s.Query(fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE token = ?`, dataTable(info)), types.Str(token))
	v := 0.0
	if err == nil {
		v = rows[0][0].Float()
	}
	st.mu.Lock()
	st.df[key] = v
	st.mu.Unlock()
	return v
}

// Selectivity implements ODCIStatsSelectivity: document frequency over
// table cardinality, combined per boolean operator.
func (st *Stats) Selectivity(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (float64, error) {
	if len(call.Args) != 1 {
		return 0.1, nil
	}
	tz, _, err := tokenizerFor(info)
	if err != nil {
		return 0.1, nil
	}
	q, err := ParseQuery(call.Args[0].Text(), tz)
	if err != nil {
		return 0.1, nil
	}
	n, err := s.RowCountEstimate(info.TableName)
	if err != nil {
		return 0.1, nil
	}
	if n == 0 {
		return 0, nil
	}
	sel := st.nodeSelectivity(s, info, q, n)
	if sel > 1 {
		sel = 1
	}
	return sel, nil
}

func (st *Stats) nodeSelectivity(s extidx.Server, info extidx.IndexInfo, q Node, n float64) float64 {
	switch x := q.(type) {
	case Term:
		return st.termDF(s, info, x.Token) / n
	case And:
		sel := 1.0
		for _, k := range x.Kids {
			sel *= st.nodeSelectivity(s, info, k, n)
		}
		return sel
	case Or:
		sel := 0.0
		for _, k := range x.Kids {
			sel += st.nodeSelectivity(s, info, k, n)
		}
		return sel
	case Not:
		return 1 - st.nodeSelectivity(s, info, x.Kid, n)
	}
	return 0.1
}

// IndexCost implements ODCIStatsIndexCost: descending the token B-tree,
// reading matching postings, then fetching matching base rows.
func (st *Stats) IndexCost(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall, sel float64) (extidx.Cost, error) {
	n, err := s.RowCountEstimate(info.TableName)
	if err != nil {
		return extidx.Cost{}, err
	}
	matches := sel * n
	return extidx.Cost{IO: 2 + matches/50 + matches, CPU: matches * 2}, nil
}

// ---------------------------------------------------------------------------
// Registration and setup

// ObjectNames used in SQL for this cartridge.
const (
	OpContains    = "Contains"
	OpScore       = "Score"
	IndexTypeName = "TextIndexType"
	MethodsName   = "TextIndexMethods"
	StatsName     = "TextIndexStats"
	FuncContains  = "TextContains"
	FuncScore     = "TextScoreFn"
)

// Register installs the cartridge's Go implementations in the database
// registry. Call once per database before Setup.
func Register(db *engine.DB) error {
	reg := db.Registry()
	if err := reg.RegisterMethods(MethodsName, Methods{}); err != nil {
		return err
	}
	if err := reg.RegisterStats(StatsName, &Stats{}); err != nil {
		return err
	}
	if err := reg.RegisterFunction(FuncContains, funcContains); err != nil {
		return err
	}
	return reg.RegisterFunction(FuncScore, func([]types.Value) (types.Value, error) {
		return types.Null(), nil
	})
}

// funcContains is the functional implementation of Contains, used when
// the optimizer bypasses the domain index.
func funcContains(args []types.Value) (types.Value, error) {
	if len(args) < 2 {
		return types.Null(), fmt.Errorf("text: Contains takes (text, query)")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return types.Num(0), nil
	}
	tz := NewTokenizer(Params{Language: "english", StopWords: map[string]bool{}})
	q, err := ParseQuery(args[1].Text(), tz)
	if err != nil {
		return types.Null(), err
	}
	ok, _ := EvalDoc(q, tz.TokenFreqs(args[0].Text()))
	if ok {
		return types.Num(1), nil
	}
	return types.Num(0), nil
}

// Setup issues the SQL DDL that creates the cartridge's schema objects:
// the Contains operator, its Score ancillary operator, and the
// TextIndexType indextype — the exact statements of §2.2.
func Setup(s *engine.Session) error {
	stmts := []string{
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER USING %s`, OpContains, FuncContains),
		fmt.Sprintf(`CREATE OPERATOR %s BINDING (NUMBER) RETURN NUMBER USING %s ANCILLARY TO %s`, OpScore, FuncScore, OpContains),
		fmt.Sprintf(`CREATE INDEXTYPE %s FOR %s(VARCHAR2, VARCHAR2) USING %s WITH STATS %s`, IndexTypeName, OpContains, MethodsName, StatsName),
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pre-8i two-step execution (§3.2.1)

// tempSeq disambiguates concurrent two-step temp tables.
var tempSeq int

// TwoStepQuery replays the pre-Oracle8i execution model for a text query:
//
//  1. evaluate the text predicate by scanning the index, writing all
//     matching row identifiers into a temporary result table, then
//  2. rewrite the query as a join with that table and execute it.
//
// Compare with the single-step pipelined domain scan the framework runs
// for the same query; the difference is experiment E2.
func TwoStepQuery(s *engine.Session, table, column, indexName, query string, limit int) ([][]types.Value, error) {
	tempSeq++
	tmp := fmt.Sprintf("RESULTS$%d", tempSeq)
	srv := s.CallbackServer(extidx.ModeDefinition, table)
	if _, err := srv.Exec(fmt.Sprintf(`CREATE TABLE %s(rid NUMBER)`, tmp)); err != nil {
		return nil, err
	}
	defer srv.Exec(fmt.Sprintf(`DROP TABLE %s`, tmp))

	// Step 1: full evaluation of the text predicate into the temp table.
	info := extidx.IndexInfo{
		IndexName:  strings.ToUpper(indexName),
		TableName:  strings.ToUpper(table),
		ColumnName: strings.ToUpper(column),
	}
	tz := NewTokenizer(Params{Language: "english", StopWords: map[string]bool{}})
	q, err := ParseQuery(query, tz)
	if err != nil {
		return nil, err
	}
	st := &scanState{}
	if err := evaluate(srv, info, q, st); err != nil {
		return nil, err
	}
	for _, rid := range st.rids {
		if _, err := srv.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (?)`, tmp), types.Int(rid)); err != nil {
			return nil, err
		}
	}

	// Step 2: the rewritten join, as in the paper:
	// SELECT d.* FROM docs d, results r WHERE d.rowid = r.rid.
	join := fmt.Sprintf(`SELECT d.* FROM %s d, %s r WHERE d.ROWID = r.rid`, table, tmp)
	if limit > 0 {
		join += fmt.Sprintf(" LIMIT %d", limit)
	}
	rs, err := s.Query(join)
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}
