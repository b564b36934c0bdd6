package engine

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/extidx"
	"repro/internal/sql"
	"repro/internal/types"
)

// Parallel table access: the planner side of morsel-driven execution
// (exec.Exchange). A single-table SELECT whose session requested
// parallelism (SetParallel) and whose chosen path is parallel-eligible
// is built as N worker pipelines — scan morsel + residual filter +
// optional partial aggregate — behind an exchange; everything above the
// exchange (merge aggregate, projection, sort, limit) stays the usual
// serial iterator stack.

// parallelMinRows is the cardinality floor below which the planner
// refuses to parallelize: goroutine startup and chunk handoff cost more
// than serially scanning a few hundred rows.
const parallelMinRows = 512

// morselsPerWorker targets this many morsels per worker so fast workers
// steal the tail of the scan instead of idling (load balancing).
const morselsPerWorker = 4

// pathDegree returns the worker count the session will run path with:
// the session's requested degree, or 1 when the path is not
// parallel-eligible or the row estimate is small. An explicit SetParallel(n) is honored as-is — the
// GOMAXPROCS cap applies only to auto mode (SetParallel(0)), so a
// degree-8 parity test behaves identically on a 1-core and a 64-core
// box.
func (s *Session) pathDegree(path accessPath) int {
	if s.parallel <= 1 {
		return 1
	}
	if path.parHeap == nil && path.parDom == nil {
		return 1
	}
	if path.estRows < parallelMinRows {
		return 1
	}
	return s.parallel
}

// morselPages sizes heap-scan morsels: enough pages per range that each
// worker sees ~morselsPerWorker of them, never below one page.
func morselPages(nPages, degree int) int {
	per := nPages / (degree * morselsPerWorker)
	if per < 1 {
		per = 1
	}
	return per
}

// buildParallelTableAccess is buildTableAccess for the single-table
// SELECT branch: it chooses the access path, and when the session's
// degree and the path's eligibility allow, assembles it as an exchange
// over scan morsels. agg, when non-nil, is the query's compiled
// aggregation; if the access parallelizes, its partial half is pushed
// into the worker pipelines and aggPushed returns true — the caller
// must then stack the FromPartial merge above the returned iterator
// instead of the full aggregate.
func (s *Session) buildParallelTableAccess(tb *tableBinding, conjuncts []sql.Expr, params []types.Value, agg *aggPlan) (it exec.Iterator, path accessPath, aggPushed bool, err error) {
	path = s.choosePath(tb, conjuncts, params)
	degree := s.pathDegree(path)
	if degree <= 1 {
		it, err = s.assembleSerialAccess(tb, path, conjuncts, params)
		return it, path, false, err
	}
	path.parallel = degree
	s.markChosenParallel(degree)

	// Residual predicate and aggregate expressions are compiled once and
	// shared across workers: exec.Compiled closures are pure functions
	// of the row, so concurrent evaluation needs no synchronization.
	var pred exec.Compiled
	if residual := residualConjuncts(conjuncts, path.consumed); len(residual) > 0 {
		pred, err = s.compileConjuncts(residual, tb.schema, params)
		if err != nil {
			return nil, path, false, err
		}
	}
	wrap := func(m exec.Iterator) exec.Iterator {
		if pred != nil {
			m = &exec.Filter{Child: m, Pred: pred}
		}
		if agg != nil {
			// Per-morsel partial aggregate: each pipeline gets its own
			// instance (the hash table is operator state) over the
			// shared compiled expressions.
			m = &exec.HashAggregate{Child: m, GroupBy: agg.groupC, Specs: agg.specs, Partial: true}
		}
		return m
	}

	var morsels []exec.Iterator
	switch {
	case path.parHeap != nil:
		pages := path.parHeap.PageList()
		for _, r := range exec.PageRanges(pages, morselPages(len(pages), degree)) {
			morsels = append(morsels, wrap(tb.heapScan(r)))
		}
	case path.parDom != nil:
		d := path.parDom
		var parts []extidx.ScanState
		parts, err = d.pm.StartParallel(s.server(extidx.ModeScan, d.table), d.info, d.call, degree)
		if err != nil {
			return nil, path, false, fmt.Errorf("ODCIIndexStartParallel(%s): %w", d.info.IndexName, err)
		}
		for _, p := range parts {
			// Each partition's Fetch/Close runs on whichever worker
			// takes it; a fresh callback server per partition keeps the
			// ODCI boundary per-goroutine.
			morsels = append(morsels, wrap(&exec.DomainScan{
				Methods:    d.m,
				Server:     s.server(extidx.ModeScan, d.table),
				Info:       d.info,
				Call:       d.call,
				Heap:       d.heap,
				Cols:       tb.cols,
				BatchSize:  d.batch,
				Pre:        p,
				PreStarted: true,
			}))
		}
	}

	ex := &exec.Exchange{
		Morsels:   morsels,
		Workers:   degree,
		BatchSize: path.batch,
		Stats:     &s.db.execStats,
		Waits:     &s.db.waits,
	}
	return s.instrScan(ex, path), path, agg != nil, nil
}

// markChosenParallel back-patches the degree onto the candidate
// choosePath just recorded as chosen, so EXPLAIN's candidate listing
// shows parallel=<n> on the winning path. Candidates the planner did
// not choose keep Parallel == 0: no degree was ever committed for them.
func (s *Session) markChosenParallel(degree int) {
	if s.trace == nil {
		return
	}
	for i := len(s.trace.Candidates) - 1; i >= 0; i-- {
		if s.trace.Candidates[i].Chosen {
			s.trace.Candidates[i].Parallel = degree
			return
		}
	}
}
