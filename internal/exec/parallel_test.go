package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// Serial-vs-parallel parity property. A random operator script is split
// at the exchange boundary: data-parallel operators (Filter, Project,
// optionally a Partial aggregate) run inside the worker pipelines over
// row morsels, everything else (Sort, Distinct, Join, the FromPartial
// merge) stays in the serial gather above the Exchange. The parallel
// plan at degrees 1, 2, and 8 must produce the same multiset of encoded
// rows as the plain serial plan over the whole base — row order across
// morsels is nondeterministic by design, so outputs are compared
// sorted. Limit is excluded: which rows survive a limit under a
// nondeterministic order is not a property either side can promise.

// splitMorsels chunks base into row slices of at most m rows — the
// test's stand-in for heap page ranges / index scan partitions.
func splitMorsels(base []Row, m int) [][]Row {
	if m < 1 {
		m = 1
	}
	var out [][]Row
	for len(base) > m {
		out = append(out, base[:m])
		base = base[m:]
	}
	if len(base) > 0 {
		out = append(out, base)
	}
	return out
}

// parityAggSpecs mirrors the scripted 'A' operator: COUNT(*) plus
// SUM(last column), grouped by column 0.
func parityAggSpecs() []AggSpec {
	return []AggSpec{
		{Kind: AggCountStar},
		{Kind: AggSum, Arg: func(r Row) (types.Value, error) { return r[len(r)-1], nil }},
	}
}

func parityGroupBy() []Compiled {
	return []Compiled{func(r Row) (types.Value, error) { return r[0], nil }}
}

// buildParallelPlan assembles: morsel pipelines (worker ops + optional
// partial aggregate) behind an Exchange, then the optional FromPartial
// merge and the above ops as the serial gather.
func buildParallelPlan(worker []planOp, pushAgg bool, above []planOp, base []Row, morsel, degree, batch int, stats *obs.ExecStats) Iterator {
	var morsels []Iterator
	for _, rows := range splitMorsels(base, morsel) {
		it := stackPlanOps(worker, &Slice{Rows: rows})
		if pushAgg {
			it = &HashAggregate{Child: it, GroupBy: parityGroupBy(), Specs: parityAggSpecs(), Partial: true}
		}
		morsels = append(morsels, it)
	}
	var it Iterator = &Exchange{Morsels: morsels, Workers: degree, BatchSize: batch, Stats: stats}
	if pushAgg {
		it = &HashAggregate{Child: it, GroupBy: identityCol0(), Specs: parityAggSpecs(), FromPartial: true}
	}
	return stackPlanOps(above, it)
}

// identityCol0 projects the group-key column of a partial-state row —
// the FromPartial GroupBy contract.
func identityCol0() []Compiled {
	return []Compiled{func(r Row) (types.Value, error) { return r[0], nil }}
}

func sortedEncoded(rows []Row) []string {
	enc := encodeRows(rows)
	sort.Strings(enc)
	return enc
}

func parallelScript(worker []planOp, pushAgg bool, above []planOp) string {
	s := planScript(worker)
	if pushAgg {
		s += " |A|"
	} else {
		s += " ||"
	}
	return strings.TrimSpace(s + " " + planScript(above))
}

func checkParallelParity(t *testing.T, worker []planOp, pushAgg bool, above []planOp, base []Row, morsel int) bool {
	t.Helper()
	serialOps := append([]planOp{}, worker...)
	if pushAgg {
		serialOps = append(serialOps, planOp{kind: 'A'})
	}
	serialOps = append(serialOps, above...)
	want := sortedEncoded(modelApply(serialOps, base))
	script := parallelScript(worker, pushAgg, above)
	for _, degree := range []int{1, 2, 8} {
		for _, batch := range []int{1, DefaultChunkSize} {
			var stats obs.ExecStats
			it := buildParallelPlan(worker, pushAgg, above, base, morsel, degree, batch, &stats)
			rows, err := drainWith(it, batch)
			if err != nil {
				t.Errorf("script %q degree %d batch %d: %v", script, degree, batch, err)
				return false
			}
			got := sortedEncoded(rows)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("script %q degree %d batch %d: parallel %d rows != serial %d rows",
					script, degree, batch, len(got), len(want))
				return false
			}
			snap := stats.Snapshot()
			if wantMorsels := int64(len(splitMorsels(base, morsel))); snap.MorselsDispatched != wantMorsels {
				t.Errorf("script %q degree %d: %d morsels dispatched, want %d",
					script, degree, snap.MorselsDispatched, wantMorsels)
				return false
			}
		}
	}
	return true
}

// genWorkerOps draws the data-parallel prefix that runs inside morsel
// pipelines: filters and projections only.
func genWorkerOps(rng *rand.Rand) []planOp {
	kinds := []byte{'F', 'P'}
	n := rng.Intn(4)
	ops := make([]planOp, 0, n)
	for i := 0; i < n; i++ {
		op := planOp{kind: kinds[rng.Intn(len(kinds))]}
		if op.kind == 'F' {
			op.n = 1 + rng.Intn(4)
		}
		ops = append(ops, op)
	}
	return ops
}

// genAboveOps draws the serial gather above the exchange. Limit is
// excluded (order-dependent row selection); everything else is
// deterministic at the multiset level.
func genAboveOps(rng *rand.Rand) []planOp {
	kinds := []byte{'F', 'P', 'S', 'D', 'J', 'A'}
	n := rng.Intn(3)
	ops := make([]planOp, 0, n)
	for i := 0; i < n; i++ {
		op := planOp{kind: kinds[rng.Intn(len(kinds))]}
		switch op.kind {
		case 'F':
			op.n = 1 + rng.Intn(4)
		case 'S':
			op.n = rng.Intn(2)
		}
		ops = append(ops, op)
	}
	return ops
}

func TestParallelPlanProperty(t *testing.T) {
	iters := 80
	if testing.Short() {
		iters = 20
	}
	for seed := int64(1); seed <= int64(iters); seed++ {
		rng := rand.New(rand.NewSource(seed))
		worker := genWorkerOps(rng)
		pushAgg := rng.Intn(2) == 0
		above := genAboveOps(rng)
		base := genBaseRows(rng)
		morsel := 1 + rng.Intn(7)
		if !checkParallelParity(t, worker, pushAgg, above, base, morsel) {
			t.Fatalf("replay with: seed %d, script %q, morsel %d (%d base rows)",
				seed, parallelScript(worker, pushAgg, above), morsel, len(base))
		}
	}
}

// TestParallelPlanReplay pins the boundary shapes: empty base, a filter
// rejecting everything inside the workers, partial aggregation with and
// without downstream operators, and single-row morsels (maximal
// handoff traffic).
func TestParallelPlanReplay(t *testing.T) {
	base := []Row{
		{types.Int(0), types.Int(3)},
		{types.Int(1), types.Int(1)},
		{types.Int(2), types.Null()},
		{types.Int(0), types.Int(3)},
		{types.Int(4), types.Int(9)},
		{types.Int(1), types.Int(7)},
		{types.Int(3), types.Int(2)},
		{types.Int(2), types.Int(5)},
	}
	cases := []struct {
		worker  string
		pushAgg bool
		above   string
		base    []Row
		morsel  int
	}{
		{"", false, "", base, 1},
		{"F2 P", false, "S1 D", base, 2},
		{"F4 F3", false, "A", base, 1}, // workers emit almost nothing
		{"P", true, "S0", base, 3},     // partial agg over projected rows
		{"", true, "", base, 1},        // pure partitioned aggregate
		{"F2", true, "J", base, 2},
		{"", false, "", nil, 4}, // empty relation: zero morsels
		{"", true, "", nil, 4},  // empty relation, aggregate shape
	}
	for _, tc := range cases {
		checkParallelParity(t, parsePlanScript(t, tc.worker), tc.pushAgg,
			parsePlanScript(t, tc.above), tc.base, tc.morsel)
	}
}

// ---------------------------------------------------------------------------
// Exchange unit tests: error propagation, cancellation, cleanup.

// closeTrack wraps an iterator and counts Close calls.
type closeTrack struct {
	Iterator
	closes atomic.Int32
}

func (c *closeTrack) Close() error {
	c.closes.Add(1)
	return c.Iterator.Close()
}

// errAfter yields its rows one per batch, then fails.
type errAfter struct {
	rows []Row
	err  error
}

func (e *errAfter) NextBatch(c *Chunk) error {
	c.Reset()
	if len(e.rows) == 0 {
		return e.err
	}
	c.Rows = append(c.Rows, e.rows[0])
	e.rows = e.rows[1:]
	return nil
}

func (e *errAfter) Close() error { return nil }

func TestExchangeErrorPropagation(t *testing.T) {
	wantErr := errors.New("morsel exploded")
	morsels := make([]Iterator, 4)
	for i := range morsels {
		morsels[i] = &Slice{Rows: []Row{{types.Int(int64(i))}}}
	}
	morsels[1] = &errAfter{rows: []Row{{types.Int(1)}}, err: wantErr}
	ex := &Exchange{Morsels: morsels, Workers: 2}
	c := NewChunk(4)
	var got error
	for {
		if err := ex.NextBatch(c); err != nil {
			got = err
			break
		}
		if c.Len() == 0 {
			break
		}
	}
	if !errors.Is(got, wantErr) {
		t.Fatalf("NextBatch error = %v, want %v", got, wantErr)
	}
	// Sticky: the same error on every subsequent call.
	if err := ex.NextBatch(c); !errors.Is(err, wantErr) {
		t.Fatalf("second NextBatch error = %v, want sticky %v", err, wantErr)
	}
	// Already surfaced to the consumer: Close does not re-report it.
	if err := ex.Close(); err != nil {
		t.Fatalf("Close after surfaced error = %v, want nil", err)
	}
}

// gatedErr fails its first NextBatch, but only once gate is closed.
type gatedErr struct {
	gate <-chan struct{}
	err  error
}

func (g *gatedErr) NextBatch(c *Chunk) error {
	c.Reset()
	<-g.gate
	return g.err
}

func (g *gatedErr) Close() error { return nil }

// TestExchangeUnconsumedError: a worker error the consumer never
// observed (Close before draining) must surface from Close. The failing
// morsel is handed out first and held until the consumer has its first
// chunk, so the error always arrives after the consumer stopped reading.
func TestExchangeUnconsumedError(t *testing.T) {
	wantErr := errors.New("late failure")
	big := make([]Row, 4*DefaultChunkSize)
	for i := range big {
		big[i] = Row{types.Int(int64(i))}
	}
	gate := make(chan struct{})
	ex := &Exchange{Morsels: []Iterator{&gatedErr{gate: gate, err: wantErr}, &Slice{Rows: big}}, Workers: 2}
	c := NewChunk(DefaultChunkSize)
	if err := ex.NextBatch(c); err != nil || c.Len() == 0 {
		t.Fatalf("first NextBatch: %d rows, err %v", c.Len(), err)
	}
	close(gate)
	if err := ex.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close error = %v, want %v (error was never surfaced)", err, wantErr)
	}
}

func TestExchangeEarlyCloseReleasesMorsels(t *testing.T) {
	const n = 8
	big := make([]Row, 4*DefaultChunkSize)
	for i := range big {
		big[i] = Row{types.Int(int64(i))}
	}
	its := make([]Iterator, n)
	tracks := make([]*closeTrack, n)
	for i := range its {
		tracks[i] = &closeTrack{Iterator: &Slice{Rows: big}}
		its[i] = tracks[i]
	}
	ex := &Exchange{Morsels: its, Workers: 3}
	c := NewChunk(DefaultChunkSize)
	if err := ex.NextBatch(c); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tr := range tracks {
		if tr.closes.Load() == 0 {
			t.Errorf("morsel %d never closed (pulled-or-cleanup invariant broken)", i)
		}
	}
	// Close is idempotent and must not re-close morsels.
	before := tracks[0].closes.Load()
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if tracks[0].closes.Load() != before {
		t.Error("second Close re-closed morsels")
	}
}

// TestExchangeNeverStarted: a built-but-never-executed exchange (the
// EXPLAIN path) must still release pre-opened morsels through Close.
func TestExchangeNeverStarted(t *testing.T) {
	its := make([]Iterator, 3)
	tracks := make([]*closeTrack, 3)
	for i := range its {
		tracks[i] = &closeTrack{Iterator: &Slice{}}
		its[i] = tracks[i]
	}
	ex := &Exchange{Morsels: its, Workers: 2}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tr := range tracks {
		if tr.closes.Load() != 1 {
			t.Errorf("morsel %d closed %d times, want 1", i, tr.closes.Load())
		}
	}
}

func TestExchangeWorkerNodeMerge(t *testing.T) {
	base := make([]Row, 100)
	for i := range base {
		base[i] = Row{types.Int(int64(i))}
	}
	node := &obs.OpNode{Desc: "SCAN"}
	parts := make([]Iterator, 5)
	for i := range parts {
		parts[i] = &Slice{Rows: base[i*20 : (i+1)*20]}
	}
	ex := &Exchange{Morsels: parts, Workers: 4, Node: node}
	rows, err := Drain(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("drained %d rows, want 100", len(rows))
	}
	if node.Parallel != 4 || len(node.Workers) != 4 {
		t.Fatalf("node parallel=%d workers=%d, want 4/4", node.Parallel, len(node.Workers))
	}
	var workerRows, morsels int64
	for _, w := range node.Workers {
		workerRows += w.Rows
		morsels += w.Morsels
	}
	if workerRows != 100 {
		t.Errorf("worker rows sum to %d, want 100", workerRows)
	}
	if morsels != 5 {
		t.Errorf("worker morsels sum to %d, want 5", morsels)
	}
}

func TestPageRanges(t *testing.T) {
	pages := make([]storage.PageID, 10)
	for i := range pages {
		pages[i] = storage.PageID(i + 1)
	}
	for _, per := range []int{-1, 0, 1, 3, 10, 99} {
		ranges := PageRanges(pages, per)
		eff := per
		if eff < 1 {
			eff = 1
		}
		var flat []storage.PageID
		for _, r := range ranges {
			if len(r) == 0 || len(r) > eff {
				t.Fatalf("per=%d: range size %d outside (0,%d]", per, len(r), eff)
			}
			flat = append(flat, r...)
		}
		if fmt.Sprint(flat) != fmt.Sprint(pages) {
			t.Fatalf("per=%d: ranges do not reassemble the page list: %v", per, flat)
		}
	}
	if got := PageRanges(nil, 4); len(got) != 0 {
		t.Fatalf("empty page list produced %d ranges", len(got))
	}
}
