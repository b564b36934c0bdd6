package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// runSelect plans and executes a SELECT, returning the materialized
// result set. The untraced path does no timing and allocates no trace
// structures — its only observability cost is a few atomic counter
// increments. A trace rides along when one is staged (EXPLAIN ANALYZE,
// QueryTraced) or when a slow-query hook is installed.
func (s *Session) runSelect(sel *sql.Select, params []types.Value) (*ResultSet, error) {
	s.db.selects.Inc()
	tr := s.pendingTrace
	s.pendingTrace = nil
	if tr == nil && !s.isCallback && s.db.hookCfg.Load() != nil {
		tr = obs.NewQueryTrace(sql.Print(sel))
	}
	if tr != nil {
		return s.runSelectTraced(sel, params, tr)
	}
	unlock := s.lockSelect(sel)
	defer unlock()
	it, schema, _, err := s.planSelect(sel, params)
	if err != nil {
		return nil, err
	}
	return s.drainResult(it, schema)
}

// drainResult materializes the pipeline's output, pulling chunks
// straight out of the batch executor.
func (s *Session) drainResult(it exec.Iterator, schema *exec.Schema) (*ResultSet, error) {
	cols := make([]string, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = c.Name
	}
	rows, err := exec.Drain(it)
	if err != nil {
		return nil, err
	}
	out := make([][]types.Value, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return &ResultSet{Columns: cols, Rows: out}, nil
}

// runSelectTraced executes a SELECT with tr active: the planner records
// candidate paths into it and wraps operators in instrumented nodes, and
// the pager/WAL counter delta across the query is attributed to it. When
// a slow-query hook is installed and the query meets its threshold, the
// finished trace is handed to the hook (callback sessions never trigger
// it — their queries already ride inside a traced outer query).
func (s *Session) runSelectTraced(sel *sql.Select, params []types.Value, tr *obs.QueryTrace) (*ResultSet, error) {
	s.db.tracedQueries.Inc()
	before := s.db.PagerStats()
	wbefore := s.db.waits.Snapshot()
	start := time.Now()
	s.trace = tr
	defer func() { s.trace = nil }()

	rs, err := func() (*ResultSet, error) {
		unlock := s.lockSelect(sel)
		defer unlock()
		it, schema, _, err := s.planSelect(sel, params)
		if err != nil {
			return nil, err
		}
		return s.drainResult(it, schema)
	}()

	tr.Elapsed = time.Since(start)
	after := s.db.PagerStats()
	tr.Pager = obs.ResourceDelta{
		PagerFetches: after.Fetches - before.Fetches,
		PagerHits:    after.Hits - before.Hits,
		PagerMisses:  after.Misses - before.Misses,
		PagerWrites:  after.Writes - before.Writes,
		WALRecords:   after.WALRecords - before.WALRecords,
		WALBytes:     after.WALBytes - before.WALBytes,
		WALSyncs:     after.WALSyncs - before.WALSyncs,
	}
	// The wait delta across the query puts blocked time next to the
	// operator timings (same caveat as the pager delta: concurrent
	// sessions bleed in).
	tr.Waits = s.db.waits.Snapshot().Delta(wbefore)
	if err != nil {
		tr.Err = err.Error()
	} else {
		tr.Rows = int64(len(rs.Rows))
	}
	if cfg := s.db.hookCfg.Load(); cfg != nil && !s.isCallback && tr.Elapsed >= cfg.threshold {
		s.db.slowQueries.Inc()
		// A slow query's trace carries the recent engine events: what the
		// rest of the database was doing while this query crawled.
		tr.Flight = flightTail(s.db.flight, flightTailEvents)
		cfg.fn(tr)
	}
	return rs, err
}

// Explain returns the access-path decisions for a query as one-column
// rows, without returning query results: the plan description lines
// followed by every candidate access path the optimizer costed, the
// winner marked with '*'.
func (s *Session) Explain(sel *sql.Select, params []types.Value) (*ResultSet, error) {
	unlock := s.lockSelect(sel)
	defer unlock()
	// Attach a throwaway trace so choosePath records its candidates; the
	// plan is built but never executed.
	tr := obs.NewQueryTrace("")
	s.trace = tr
	defer func() { s.trace = nil }()
	it, _, descs, err := s.planSelect(sel, params)
	if err != nil {
		return nil, err
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: []string{"PLAN"}}
	for _, d := range descs {
		rs.Rows = append(rs.Rows, []types.Value{types.Str(d)})
	}
	if len(tr.Candidates) > 0 {
		rs.Rows = append(rs.Rows, []types.Value{types.Str("CANDIDATE ACCESS PATHS:")})
		for _, line := range obs.RenderCandidates(tr.Candidates) {
			rs.Rows = append(rs.Rows, []types.Value{types.Str(line)})
		}
	}
	return rs, nil
}

// ExplainAnalyze executes the query with a trace attached and renders
// the operator tree with estimated vs actual rows and per-operator wall
// time, the candidate access paths, and the query's pager/WAL footprint.
func (s *Session) ExplainAnalyze(sel *sql.Select, params []types.Value) (*ResultSet, error) {
	tr := obs.NewQueryTrace(sql.Print(sel))
	s.pendingTrace = tr
	if _, err := s.runSelect(sel, params); err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: []string{"EXPLAIN ANALYZE"}}
	for _, line := range tr.Render() {
		rs.Rows = append(rs.Rows, []types.Value{types.Str(line)})
	}
	return rs, nil
}

// lockSelect acquires read locks on every table a SELECT references,
// holding them until the result is drained.
func (s *Session) lockSelect(sel *sql.Select) func() {
	var readNames []string
	for _, tr := range sel.From {
		readNames = append(readNames, tr.Name)
	}
	return s.lockTables(readNames, nil)
}

// planSelect assembles the full iterator pipeline for a SELECT and
// returns it with the output schema and the plan description lines.
func (s *Session) planSelect(sel *sql.Select, params []types.Value) (exec.Iterator, *exec.Schema, []string, error) {
	if len(sel.From) == 0 {
		return nil, nil, nil, fmt.Errorf("engine: SELECT requires FROM")
	}
	tbs := make([]*tableBinding, len(sel.From))
	for i, tr := range sel.From {
		tb, err := s.bindTable(tr)
		if err != nil {
			return nil, nil, nil, err
		}
		tbs[i] = tb
	}
	s.markReadColumns(tbs, sel)
	conjuncts := splitConjuncts(sel.Where)

	// Aggregation is detected before the access path is built: a
	// parallel single-table access pushes the aggregate's partial half
	// into the exchange workers, so the compiled aggregate must exist
	// when the access is assembled.
	hasAgg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if !item.Star && containsAggregate(item.Expr) {
			hasAgg = true
		}
	}
	if sel.Having != nil {
		hasAgg = true
	}

	var it exec.Iterator
	var schema *exec.Schema
	var descs []string
	if len(tbs) == 1 {
		var agg *aggPlan
		if hasAgg {
			var err error
			agg, sel, err = s.compileAggregate(tbs[0].schema, sel, params)
			if err != nil {
				return nil, nil, nil, err
			}
		}
		var path accessPath
		var aggPushed bool
		var err error
		it, path, aggPushed, err = s.buildParallelTableAccess(tbs[0], conjuncts, params, agg)
		if err != nil {
			return nil, nil, nil, err
		}
		schema = tbs[0].schema
		costLine := fmt.Sprintf("  cost=%.2f estRows=%.1f", path.cost, path.estRows)
		if path.batch > 0 {
			costLine += fmt.Sprintf(" batch=%d", path.batch)
		}
		if path.parallel > 1 {
			costLine += fmt.Sprintf(" parallel=%d", path.parallel)
		}
		descs = []string{path.desc, costLine}
		if hasAgg {
			it = applyAggregate(it, agg, aggPushed)
			schema = agg.schema
			descs = append(descs, "HASH GROUP BY")
			it = s.instr(it, "HASH GROUP BY", -1)
		}
	} else {
		var err error
		it, schema, descs, err = s.planJoin(tbs, conjuncts, params)
		if err != nil {
			return nil, nil, nil, err
		}
		if hasAgg {
			it, schema, sel, err = s.buildAggregate(it, schema, sel, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			descs = append(descs, "HASH GROUP BY")
			it = s.instr(it, "HASH GROUP BY", -1)
		}
	}

	// Projection list.
	outSchema := &exec.Schema{}
	var exprs []exec.Compiled
	var itemExprs []sql.Expr // for ORDER BY matching (nil for star entries)
	for i, item := range sel.Items {
		if item.Star {
			for _, sc := range schema.Cols {
				if strings.EqualFold(sc.Name, exec.RowIDColumn) {
					continue
				}
				if item.Table != "" && !strings.EqualFold(sc.Qualifier, item.Table) {
					continue
				}
				cr := sql.ColumnRef{Table: sc.Qualifier, Name: sc.Name}
				c, err := exec.Compile(cr, schema, s, params)
				if err != nil {
					return nil, nil, nil, errors.Join(err, it.Close())
				}
				exprs = append(exprs, c)
				itemExprs = append(itemExprs, cr)
				outSchema.Cols = append(outSchema.Cols, exec.SchemaCol{Name: strings.ToUpper(sc.Name)})
			}
			continue
		}
		c, err := exec.Compile(item.Expr, schema, s, params)
		if err != nil {
			return nil, nil, nil, errors.Join(err, it.Close())
		}
		exprs = append(exprs, c)
		itemExprs = append(itemExprs, item.Expr)
		outSchema.Cols = append(outSchema.Cols, exec.SchemaCol{Name: itemName(item, i)})
	}

	// ORDER BY keys: match select items/aliases, else hidden columns.
	type orderRef struct {
		pos  int
		desc bool
	}
	var orders []orderRef
	hidden := 0
	for _, oi := range sel.OrderBy {
		pos := -1
		if cr, ok := oi.Expr.(sql.ColumnRef); ok && cr.Table == "" {
			for j := range outSchema.Cols {
				if strings.EqualFold(outSchema.Cols[j].Name, cr.Name) {
					pos = j
					break
				}
			}
		}
		if pos < 0 {
			for j, ie := range itemExprs {
				if ie != nil && reflect.DeepEqual(ie, oi.Expr) {
					pos = j
					break
				}
			}
		}
		if pos < 0 {
			if sel.Distinct {
				return nil, nil, nil, errors.Join(
					fmt.Errorf("engine: ORDER BY expression must appear in the select list with DISTINCT"),
					it.Close())
			}
			c, err := exec.Compile(oi.Expr, schema, s, params)
			if err != nil {
				return nil, nil, nil, errors.Join(err, it.Close())
			}
			exprs = append(exprs, c)
			pos = len(exprs) - 1
			outSchema.Cols = append(outSchema.Cols, exec.SchemaCol{Name: fmt.Sprintf("__ORD%d", hidden)})
			hidden++
		}
		orders = append(orders, orderRef{pos: pos, desc: oi.Desc})
	}

	it = &exec.Project{Child: it, Exprs: exprs}
	if sel.Distinct {
		it = &exec.Distinct{Child: it}
	}
	if len(orders) > 0 {
		keys := make([]exec.SortKey, len(orders))
		for i, o := range orders {
			pos := o.pos
			keys[i] = exec.SortKey{
				Expr: func(r exec.Row) (types.Value, error) { return r[pos], nil },
				Desc: o.desc,
			}
		}
		it = &exec.Sort{Child: it, Keys: keys}
		descs = append(descs, "SORT ORDER BY")
		it = s.instr(it, "SORT ORDER BY", -1)
	}
	if sel.Limit >= 0 {
		it = &exec.Limit{Child: it, N: sel.Limit}
	}
	if hidden > 0 {
		visible := len(outSchema.Cols) - hidden
		it = &exec.Project{Child: it, Exprs: identityExprs(visible)}
		outSchema = &exec.Schema{Cols: outSchema.Cols[:visible]}
	}
	it = s.instr(it, "SELECT STATEMENT", -1)
	return it, outSchema, descs, nil
}

// instr wraps it in an instrumented node attached to the active trace;
// with no trace it returns it unchanged (the untraced fast path).
func (s *Session) instr(it exec.Iterator, desc string, estRows float64) exec.Iterator {
	if s.trace == nil {
		return it
	}
	return &exec.Instrument{Child: it, Node: s.trace.Node(desc, estRows)}
}

// instrScan is instr for a table-access operator: the node additionally
// records the batch size and degree of parallelism the planner chose,
// so EXPLAIN ANALYZE shows batch=<n> (and parallel=<n>) per scan
// operator. For an exchange the node is also handed to the operator
// itself: the enclosing Instrument keeps consumer-side wall time and
// row counts on the node, while the exchange merges its per-worker
// sub-nodes (busy time, morsels) into it at Close.
func (s *Session) instrScan(it exec.Iterator, path accessPath) exec.Iterator {
	if s.trace == nil {
		return it
	}
	n := s.trace.Node(path.desc, path.estRows)
	n.BatchSize = path.batch
	if path.parallel > 1 {
		n.Parallel = path.parallel
		if ex, ok := it.(*exec.Exchange); ok {
			ex.Node = n
		}
	}
	return &exec.Instrument{Child: it, Node: n}
}

func identityExprs(n int) []exec.Compiled {
	out := make([]exec.Compiled, n)
	for i := 0; i < n; i++ {
		i := i
		out[i] = func(r exec.Row) (types.Value, error) { return r[i], nil }
	}
	return out
}

func itemName(item sql.SelectItem, i int) string {
	if item.Alias != "" {
		return strings.ToUpper(item.Alias)
	}
	switch e := item.Expr.(type) {
	case sql.ColumnRef:
		return strings.ToUpper(e.Name)
	case sql.Call:
		return strings.ToUpper(e.Name)
	default:
		return fmt.Sprintf("EXPR%d", i+1)
	}
}

// aggPlan is a compiled aggregation stage: group-key and aggregate
// expressions compiled against the input schema, the aggregate output
// schema (G<i>/A<j> columns), and the compiled HAVING filter over that
// output. compileAggregate produces it; applyAggregate stacks it on an
// iterator — as a whole serial HashAggregate, or as the FromPartial
// merge half when exchange workers already ran the partial half.
type aggPlan struct {
	groupC []exec.Compiled
	specs  []exec.AggSpec
	schema *exec.Schema
	having exec.Compiled
}

// buildAggregate inserts the HashAggregate stage and rewrites the select
// list, HAVING and ORDER BY to reference its output (G<i>/A<j> columns).
// It returns the rewritten Select (a copy) to keep the caller's pipeline
// logic uniform.
func (s *Session) buildAggregate(it exec.Iterator, schema *exec.Schema, sel *sql.Select, params []types.Value) (exec.Iterator, *exec.Schema, *sql.Select, error) {
	agg, out, err := s.compileAggregate(schema, sel, params)
	if err != nil {
		return nil, nil, nil, err
	}
	return applyAggregate(it, agg, false), agg.schema, out, nil
}

// applyAggregate stacks the aggregation stage on it. When the partial
// half already ran inside exchange workers (partial true), the operator
// becomes a FromPartial merge whose group keys are identity projections
// of the partial rows' leading key columns; otherwise it is the
// ordinary serial HashAggregate. The HAVING filter sits above either.
func applyAggregate(it exec.Iterator, agg *aggPlan, partial bool) exec.Iterator {
	ha := &exec.HashAggregate{Child: it, Specs: agg.specs}
	if partial {
		ha.GroupBy = identityExprs(len(agg.groupC))
		ha.FromPartial = true
	} else {
		ha.GroupBy = agg.groupC
	}
	var out exec.Iterator = ha
	if agg.having != nil {
		out = &exec.Filter{Child: out, Pred: agg.having}
	}
	return out
}

// compileAggregate compiles the aggregation stage against the input
// schema and rewrites the select list, HAVING and ORDER BY to reference
// its output, returning the rewritten Select (a copy).
func (s *Session) compileAggregate(schema *exec.Schema, sel *sql.Select, params []types.Value) (*aggPlan, *sql.Select, error) {
	// Compile group-by expressions against the input schema.
	groupC := make([]exec.Compiled, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		c, err := exec.Compile(g, schema, s, params)
		if err != nil {
			return nil, nil, err
		}
		groupC[i] = c
	}
	// Rewrite select items, HAVING, and ORDER BY; collect aggregate specs.
	var specs []sql.Call
	out := *sel
	out.Items = make([]sql.SelectItem, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregation")
		}
		ni := item
		if ni.Alias == "" {
			// Preserve the user-visible column name (COUNT, SUM, dept, …)
			// across the rewrite to internal aggregate columns.
			ni.Alias = itemName(item, i)
		}
		ni.Expr = rewriteForAgg(item.Expr, sel.GroupBy, &specs)
		out.Items[i] = ni
	}
	var havingRewritten sql.Expr
	if sel.Having != nil {
		havingRewritten = rewriteForAgg(sel.Having, sel.GroupBy, &specs)
	}
	out.OrderBy = make([]sql.OrderItem, len(sel.OrderBy))
	for i, oi := range sel.OrderBy {
		out.OrderBy[i] = sql.OrderItem{Expr: rewriteForAgg(oi.Expr, sel.GroupBy, &specs), Desc: oi.Desc}
	}
	out.GroupBy = nil
	out.Having = nil

	// Build aggregate specs against the input schema.
	aggSpecs := make([]exec.AggSpec, len(specs))
	for j, c := range specs {
		kind := aggFns[strings.ToUpper(c.Name)]
		if c.Star {
			if kind != exec.AggCount {
				return nil, nil, fmt.Errorf("engine: %s(*) is not valid", c.Name)
			}
			aggSpecs[j] = exec.AggSpec{Kind: exec.AggCountStar}
			continue
		}
		if len(c.Args) != 1 {
			return nil, nil, fmt.Errorf("engine: aggregate %s takes one argument", c.Name)
		}
		ac, err := exec.Compile(c.Args[0], schema, s, params)
		if err != nil {
			return nil, nil, err
		}
		aggSpecs[j] = exec.AggSpec{Kind: kind, Arg: ac}
	}

	aggSchema := &exec.Schema{}
	for i := range sel.GroupBy {
		aggSchema.Cols = append(aggSchema.Cols, exec.SchemaCol{Name: fmt.Sprintf("G%d", i)})
	}
	for j := range specs {
		aggSchema.Cols = append(aggSchema.Cols, exec.SchemaCol{Name: fmt.Sprintf("A%d", j)})
	}
	plan := &aggPlan{groupC: groupC, specs: aggSpecs, schema: aggSchema}
	if havingRewritten != nil {
		pred, err := exec.Compile(havingRewritten, aggSchema, s, params)
		if err != nil {
			return nil, nil, err
		}
		plan.having = pred
	}
	return plan, &out, nil
}
