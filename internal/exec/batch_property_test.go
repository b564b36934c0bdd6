package exec

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/extidx"
	"repro/internal/storage"
	"repro/internal/types"
)

// Property/model test for the chunk protocol: random operator stacks are
// built over the same base rows three ways — a plain-Go model of each
// operator's semantics, the chunk path drained at several batch sizes
// (including 1, which forces maximal protocol traffic), and the
// row-at-a-time RowAdapter path — and all must agree byte-for-byte
// (encoded row images, in order).
//
// The expressions inside Filter/Project/Sort/Aggregate are shared Go
// closures, so the property isolates the operator and chunk machinery:
// EOS signalling, empty mid-stream batches, Full()-bounded refills, and
// state carried across NextBatch calls.
//
// Failures are replayable: the test prints the failing seed and the op
// script (e.g. "F2 P L5 S1 D J A"), which parsePlanScript and
// TestBatchPlanReplay re-run verbatim.

type planOp struct {
	kind byte // F=Filter P=Project L=Limit S=Sort D=Distinct J=Join A=Aggregate
	n    int  // F: modulus, L: limit, S: 1=desc
}

func (o planOp) String() string {
	switch o.kind {
	case 'F', 'L', 'S':
		return fmt.Sprintf("%c%d", o.kind, o.n)
	}
	return string(o.kind)
}

func planScript(ops []planOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

func parsePlanScript(t *testing.T, s string) []planOp {
	t.Helper()
	var ops []planOp
	for _, f := range strings.Fields(s) {
		op := planOp{kind: f[0]}
		if len(f) > 1 {
			n, err := strconv.Atoi(f[1:])
			if err != nil {
				t.Fatalf("bad op %q: %v", f, err)
			}
			op.n = n
		}
		ops = append(ops, op)
	}
	return ops
}

// Shared semantics: the same closures feed both the operators and the
// model, so any divergence is protocol machinery, not expression logic.

func keepRow(r Row, k int) bool { return r[0].Int64()%int64(k) == 0 }

func projectRow(r Row) Row {
	return Row{r[len(r)-1], types.Int(r[0].Int64() + 1)}
}

var joinInnerRows = []Row{{types.Int(100)}, {types.Int(200)}}

// buildPlan stacks the scripted operators over a fresh Slice source.
func buildPlan(ops []planOp, base []Row) Iterator {
	return stackPlanOps(ops, &Slice{Rows: base})
}

// stackPlanOps stacks the scripted operators over an arbitrary child —
// the parallel parity test reuses it to build per-morsel worker
// pipelines and the serial gather above an Exchange.
func stackPlanOps(ops []planOp, it Iterator) Iterator {
	for _, o := range ops {
		switch o.kind {
		case 'F':
			k := o.n
			it = &Filter{Child: it, Pred: func(r Row) (types.Value, error) {
				return types.Bool(keepRow(r, k)), nil
			}}
		case 'P':
			it = &Project{Child: it, Exprs: []Compiled{
				func(r Row) (types.Value, error) { return r[len(r)-1], nil },
				func(r Row) (types.Value, error) { return types.Int(r[0].Int64() + 1), nil },
			}}
		case 'L':
			it = &Limit{Child: it, N: o.n}
		case 'S':
			it = &Sort{Child: it, Keys: []SortKey{{
				Expr: func(r Row) (types.Value, error) { return r[0], nil },
				Desc: o.n == 1,
			}}}
		case 'D':
			it = &Distinct{Child: it}
		case 'J':
			it = &NestedLoopJoin{Outer: it, Inner: func(Row) (Iterator, error) {
				return &Slice{Rows: joinInnerRows}, nil
			}}
		case 'A':
			it = &HashAggregate{
				Child:   it,
				GroupBy: []Compiled{func(r Row) (types.Value, error) { return r[0], nil }},
				Specs: []AggSpec{
					{Kind: AggCountStar},
					{Kind: AggSum, Arg: func(r Row) (types.Value, error) { return r[len(r)-1], nil }},
				},
			}
		}
	}
	return it
}

// modelApply is the plain-Go oracle for the same operator stack.
func modelApply(ops []planOp, base []Row) []Row {
	rows := base
	for _, o := range ops {
		var next []Row
		switch o.kind {
		case 'F':
			for _, r := range rows {
				if keepRow(r, o.n) {
					next = append(next, r)
				}
			}
		case 'P':
			for _, r := range rows {
				next = append(next, projectRow(r))
			}
		case 'L':
			n := o.n
			if n > len(rows) {
				n = len(rows)
			}
			next = rows[:n]
		case 'S':
			next = modelSort(rows, o.n == 1)
		case 'D':
			seen := map[string]bool{}
			for _, r := range rows {
				key := string(types.EncodeRow(nil, r))
				if !seen[key] {
					seen[key] = true
					next = append(next, r)
				}
			}
		case 'J':
			for _, outer := range rows {
				for _, inner := range joinInnerRows {
					joined := make(Row, 0, len(outer)+len(inner))
					joined = append(joined, outer...)
					joined = append(joined, inner...)
					next = append(next, joined)
				}
			}
		case 'A':
			next = modelAggregate(rows)
		}
		rows = next
	}
	return rows
}

func modelSort(rows []Row, desc bool) []Row {
	out := make([]Row, len(rows))
	copy(out, rows)
	// Insertion sort: stable, and mirrors the operator's
	// Identical/Less/Desc comparison exactly.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1][0], out[j][0]
			if types.Identical(a, b) {
				break
			}
			less := types.Less(b, a)
			if desc {
				less = !less
			}
			if !less {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func modelAggregate(rows []Row) []Row {
	type gstate struct {
		key   types.Value
		stars int64
		n     int64
		sum   float64
	}
	groups := map[string]*gstate{}
	var order []string
	for _, r := range rows {
		gk := string(types.EncodeRow(nil, []types.Value{r[0]}))
		st, ok := groups[gk]
		if !ok {
			st = &gstate{key: r[0]}
			groups[gk] = st
			order = append(order, gk)
		}
		st.stars++
		if v := r[len(r)-1]; !v.IsNull() {
			st.n++
			st.sum += v.Float()
		}
	}
	var out []Row
	for _, gk := range order {
		st := groups[gk]
		sum := types.Null()
		if st.n > 0 {
			sum = types.Num(st.sum)
		}
		out = append(out, Row{st.key, types.Int(st.stars), sum})
	}
	return out
}

// drainWith drains the iterator at the given chunk size, publishing each
// row's ancillary value as a real consumer would. Like Drain it keeps
// the rows past the producer's next NextBatch, so it copies them the
// same way, one slab per batch.
func drainWith(it Iterator, batch int) ([]Row, error) {
	defer it.Close()
	var out []Row
	c := NewChunk(batch)
	for {
		if err := it.NextBatch(c); err != nil {
			return nil, err
		}
		if c.Len() == 0 {
			return out, nil
		}
		for i := range c.Rows {
			c.PublishRow(i)
		}
		out = keepRows(out, c.Rows)
	}
}

func encodeRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(types.EncodeRow(nil, r))
	}
	return out
}

func sameRows(a, b []Row) bool {
	ea, eb := encodeRows(a), encodeRows(b)
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// checkPlanParity runs the script through the model, the chunk path at
// several batch sizes, and the RowAdapter path, and requires identical
// encoded output everywhere.
func checkPlanParity(t *testing.T, ops []planOp, base []Row) bool {
	t.Helper()
	want := modelApply(ops, base)
	for _, batch := range []int{1, 3, DefaultChunkSize} {
		got, err := drainWith(buildPlan(ops, base), batch)
		if err != nil {
			t.Errorf("script %q batch %d: %v", planScript(ops), batch, err)
			return false
		}
		if !sameRows(want, got) {
			t.Errorf("script %q batch %d: chunk path %d rows != model %d rows",
				planScript(ops), batch, len(got), len(want))
			return false
		}
	}
	rows, err := drainRows(buildPlan(ops, base), 0)
	if err != nil {
		t.Errorf("script %q row path: %v", planScript(ops), err)
		return false
	}
	if !sameRows(want, rows) {
		t.Errorf("script %q: row path %d rows != model %d rows",
			planScript(ops), len(rows), len(want))
		return false
	}
	return true
}

func genPlanOps(rng *rand.Rand) []planOp {
	kinds := []byte{'F', 'P', 'L', 'S', 'D', 'J', 'A'}
	n := 1 + rng.Intn(5)
	ops := make([]planOp, 0, n)
	for i := 0; i < n; i++ {
		op := planOp{kind: kinds[rng.Intn(len(kinds))]}
		switch op.kind {
		case 'F':
			op.n = 1 + rng.Intn(4) // modulus 1 keeps all, 4 keeps few
		case 'L':
			op.n = rng.Intn(20) // limit 0 allowed: empty downstream
		case 'S':
			op.n = rng.Intn(2)
		}
		ops = append(ops, op)
	}
	return ops
}

func genBaseRows(rng *rand.Rand) []Row {
	n := rng.Intn(41) // 0 rows allowed: empty pipelines
	rows := make([]Row, n)
	for i := range rows {
		v := types.Null()
		if rng.Float64() >= 0.1 {
			v = types.Int(int64(rng.Intn(50)))
		}
		rows[i] = Row{types.Int(int64(rng.Intn(5))), v}
	}
	return rows
}

func TestBatchPlanProperty(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 25
	}
	for seed := int64(1); seed <= int64(iters); seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := genPlanOps(rng)
		base := genBaseRows(rng)
		if !checkPlanParity(t, ops, base) {
			t.Fatalf("replay with: seed %d, script %q (%d base rows)",
				seed, planScript(ops), len(base))
		}
	}
}

// TestBatchPlanReplay re-runs fixed scripts covering every operator and
// the boundary shapes: a filter that rejects everything (empty
// mid-stream batches), limit 0, aggregate over zero rows, and stacked
// order-sensitive operators.
func TestBatchPlanReplay(t *testing.T) {
	base := []Row{
		{types.Int(0), types.Int(3)},
		{types.Int(1), types.Int(1)},
		{types.Int(2), types.Null()},
		{types.Int(0), types.Int(3)},
		{types.Int(4), types.Int(9)},
		{types.Int(1), types.Int(7)},
	}
	scripts := []string{
		"F2 P L5 S1 D J A",
		"F4 F3", // second filter sees sparse upstream chunks
		"L0 A",  // global-shape aggregate over an empty stream
		"S0 S1 D",
		"J J L7",
		"A S1 P",
		"D F1 L3",
	}
	for _, s := range scripts {
		checkPlanParity(t, parsePlanScript(t, s), base)
	}
	// And the empty base relation through every single operator.
	for _, s := range []string{"F2", "P", "L3", "S0", "D", "J", "A"} {
		checkPlanParity(t, parsePlanScript(t, s), nil)
	}
}

// ---------------------------------------------------------------------------
// DomainScan edge cases via a scripted cartridge

// scriptedMethods replays a fixed sequence of FetchResults, so tests can
// force protocol shapes a real cartridge rarely produces: empty
// mid-stream batches, Done carried on a non-empty final batch, and
// exact-boundary batches.
type scriptedMethods struct {
	batches []extidx.FetchResult
	fetches int
	closes  int
}

func (m *scriptedMethods) Create(extidx.Server, extidx.IndexInfo) error        { return nil }
func (m *scriptedMethods) Alter(extidx.Server, extidx.IndexInfo, string) error { return nil }
func (m *scriptedMethods) Truncate(extidx.Server, extidx.IndexInfo) error      { return nil }
func (m *scriptedMethods) Drop(extidx.Server, extidx.IndexInfo) error          { return nil }
func (m *scriptedMethods) Insert(extidx.Server, extidx.IndexInfo, int64, types.Value) error {
	return nil
}
func (m *scriptedMethods) Delete(extidx.Server, extidx.IndexInfo, int64, types.Value) error {
	return nil
}
func (m *scriptedMethods) Update(extidx.Server, extidx.IndexInfo, int64, types.Value, types.Value) error {
	return nil
}

func (m *scriptedMethods) Start(extidx.Server, extidx.IndexInfo, extidx.OperatorCall) (extidx.ScanState, error) {
	m.fetches = 0
	return extidx.StateValue{}, nil
}

func (m *scriptedMethods) Fetch(_ extidx.Server, st extidx.ScanState, _ int) (extidx.FetchResult, extidx.ScanState, error) {
	if m.fetches >= len(m.batches) {
		return extidx.FetchResult{Done: true}, st, nil
	}
	res := m.batches[m.fetches]
	m.fetches++
	return res, st, nil
}

func (m *scriptedMethods) Close(extidx.Server, extidx.ScanState) error {
	m.closes++
	return nil
}

// recordSink captures ancillary publications in consumption order.
type recordSink struct {
	labels []int64
	vals   []types.Value
}

func (s *recordSink) SetAncillary(label int64, v types.Value) {
	s.labels = append(s.labels, label)
	s.vals = append(s.vals, v)
}

func propertyHeap(t *testing.T, n int) (*storage.Heap, []int64) {
	t.Helper()
	p := storage.NewPager(storage.NewMemBackend(), 32)
	h, err := storage.CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]int64, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert(types.EncodeRow(nil, []types.Value{types.Int(int64(i))}))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid.Int64()
	}
	return h, rids
}

// TestHeapScanProperty: a heap churned by deletes and by growing
// updates that relocate rows behind forwarding stubs is drained through
// HeapScan over the whole page list and over every PageRanges split, at
// several chunk sizes. Each live row must come out exactly once, with its
// current image and its canonical RID as the ROWID column.
func TestHeapScanProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, rids := propertyHeap(t, 600+rng.Intn(600))
		pagesBefore := h.NumPages()
		want := make(map[int64]string, len(rids)) // ROWID -> encoded row
		for i, r := range rids {
			rid := storage.RIDFromInt64(r)
			row := []types.Value{types.Int(int64(i))}
			switch rng.Intn(10) {
			case 0:
				if err := h.Delete(rid); err != nil {
					t.Fatal(err)
				}
				continue
			case 1, 2:
				row = append(row, types.Str(strings.Repeat("x", 200+rng.Intn(800))))
				if err := h.Update(rid, types.EncodeRow(nil, row)); err != nil {
					t.Fatal(err)
				}
			}
			want[r] = string(types.EncodeRow(nil, row))
		}
		if h.NumPages() <= pagesBefore {
			t.Fatalf("seed %d: growing updates relocated nothing", seed)
		}
		pages := h.PageList()
		splits := [][][]storage.PageID{{pages}}
		for _, per := range []int{1, 2, 3, 7} {
			splits = append(splits, PageRanges(pages, per))
		}
		for _, ranges := range splits {
			for _, batch := range []int{1, 3, DefaultChunkSize} {
				got := make(map[int64]string, len(want))
				for _, r := range ranges {
					rows, err := drainWith(NewHeapScan(h, r), batch)
					if err != nil {
						t.Fatal(err)
					}
					for _, row := range rows {
						rid := row[len(row)-1].Int64()
						if _, dup := got[rid]; dup {
							t.Fatalf("seed %d, %d ranges, batch %d: ROWID %d scanned twice", seed, len(ranges), batch, rid)
						}
						got[rid] = string(types.EncodeRow(nil, row[:len(row)-1]))
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d, %d ranges, batch %d: %d rows, want %d", seed, len(ranges), batch, len(got), len(want))
				}
				for rid, img := range want {
					if got[rid] != img {
						t.Fatalf("seed %d, %d ranges, batch %d: ROWID %d has the wrong image", seed, len(ranges), batch, rid)
					}
				}
			}
		}
	}
}

// paddedHeap holds n rows (id NUMBER, pad VARCHAR2) with a 100-byte
// pad, about 70 to a page, in a pool that holds them all.
func paddedHeap(t *testing.T, n int) *storage.Heap {
	t.Helper()
	return paddedHeapOn(t, storage.NewPager(storage.NewMemBackend(), n/64+8), n)
}

// paddedHeapOn is paddedHeap in the given pool.
func paddedHeapOn(t *testing.T, p *storage.Pager, n int) *storage.Heap {
	t.Helper()
	h, err := storage.CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	pad := types.Str(strings.Repeat("x", 100))
	for i := 0; i < n; i++ {
		if _, err := h.Insert(types.EncodeRow(nil, []types.Value{types.Int(int64(i)), pad})); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// drainAllocs is the allocation count of draining it once, built fresh
// per run by mk.
func drainAllocs(t *testing.T, mk func() Iterator) float64 {
	t.Helper()
	c := NewChunk(DefaultChunkSize)
	return testing.AllocsPerRun(5, func() {
		it := mk()
		for {
			if err := it.NextBatch(c); err != nil {
				t.Fatal(err)
			}
			if c.Len() == 0 {
				return
			}
		}
	})
}

// TestHeapScanAllocsPerRow: a streaming scan decodes each page into a
// recycled slab and copies no record image, so with the string column
// masked out its allocations are a constant, however many pages it
// reads: the scan itself and the few slabs one chunk spans. Decoding
// the string as well adds exactly its copy per row.
func TestHeapScanAllocsPerRow(t *testing.T) {
	const n = 5000
	h := paddedHeap(t, n)
	pages := float64(h.NumPages())
	const scanAllocs = 64
	masked := drainAllocs(t, func() Iterator {
		s := NewHeapScan(h, h.PageList())
		s.Cols = []bool{true, false}
		return s
	})
	if masked > scanAllocs {
		t.Fatalf("draining %d rows on %.0f pages with the pad masked allocates %.0f, want <= %d",
			n, pages, masked, scanAllocs)
	}
	full := drainAllocs(t, func() Iterator { return NewHeapScan(h, h.PageList()) })
	t.Logf("%d rows on %.0f pages: %.0f allocations masked, %.0f decoding every column", n, pages, masked, full)
	if full > n+scanAllocs {
		t.Fatalf("draining %d rows on %.0f pages allocates %.0f, want <= rows + %d", n, pages, full, scanAllocs)
	}

	// Heap.Delete never frees a page, so after a mass DELETE a scan
	// walks many empty pages. An empty page reuses the slab of the page
	// before it: draining costs the same constant, and holds one page's
	// rows, not a slab per page.
	first := h.PageList()[0]
	var doomed []storage.RID
	if err := h.Scan(func(rid storage.RID, _ []byte) (bool, error) {
		if rid.Page != first {
			doomed = append(doomed, rid)
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, rid := range doomed {
		if err := h.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() != int(pages) {
		t.Fatalf("deleting rows changed the heap from %.0f to %d pages", pages, h.NumPages())
	}
	emptied := drainAllocs(t, func() Iterator {
		s := NewHeapScan(h, h.PageList())
		s.Cols = []bool{true, false}
		return s
	})
	t.Logf("%d rows on the first of %.0f pages: %.0f allocations masked", n-len(doomed), pages, emptied)
	if emptied > scanAllocs {
		t.Fatalf("draining one full page and %.0f emptied ones allocates %.0f, want <= %d",
			pages-1, emptied, scanAllocs)
	}
}

// TestRIDFetchMaskedAllocs: a RIDFetch cuts each batch from one
// recycled slab and sorts it page-wise in a recycled permutation, so
// with the pad masked out (returned NULL) its allocations are a
// constant, however many batches it fetches: the fetch itself and its
// buffers' growth on the first batch.
func TestRIDFetchMaskedAllocs(t *testing.T) {
	const n = 8192
	h := paddedHeap(t, n)
	var rids []int64
	if err := h.Scan(func(rid storage.RID, _ []byte) (bool, error) {
		rids = append(rids, rid.Int64())
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Reverse the order so the page-sorted read must put rows back.
	for i, j := 0, len(rids)-1; i < j; i, j = i+1, j-1 {
		rids[i], rids[j] = rids[j], rids[i]
	}
	mk := func() Iterator {
		return &RIDFetch{Heap: h, Src: SliceRIDSource(rids), Cols: []bool{true, false}}
	}
	rows, err := Drain(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if want := int64(n - 1 - i); r[0].Int64() != want || !r[1].IsNull() || r[2].Int64() != rids[i] {
			t.Fatalf("row %d = %v, want id %d, NULL pad, ROWID %d", i, r, want, rids[i])
		}
	}
	batches := float64(n / DefaultChunkSize)
	const fetchAllocs = 48
	allocs := drainAllocs(t, mk)
	t.Logf("%d rows in %.0f batches: %.0f allocations", n, batches, allocs)
	if allocs > fetchAllocs {
		t.Fatalf("fetching %d rows in %.0f batches allocates %.0f, want <= %d", n, batches, allocs, fetchAllocs)
	}
}

// TestRIDBatchesPinEachPageOnce: RIDFetch and DomainScan read a batch
// of RIDs with one page-sorted heap read, so the pool serves each batch
// at most one fetch per distinct page in it, however the RIDs are
// ordered. The RIDs alternate between pairs of pages, so a batch that
// fell back to one heap read per RID would fetch each page once per row.
func TestRIDBatchesPinEachPageOnce(t *testing.T) {
	const n = 2000
	pool := storage.NewPager(storage.NewMemBackend(), n/64+8)
	h := paddedHeapOn(t, pool, n)
	var byPage [][]int64
	last := storage.InvalidPage
	if err := h.Scan(func(rid storage.RID, _ []byte) (bool, error) {
		if rid.Page != last {
			byPage, last = append(byPage, nil), rid.Page
		}
		byPage[len(byPage)-1] = append(byPage[len(byPage)-1], rid.Int64())
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	var rids []int64
	for i := 0; i < len(byPage); i += 2 {
		a, b := byPage[i], []int64(nil)
		if i+1 < len(byPage) {
			b = byPage[i+1]
		}
		for j := 0; j < len(a) || j < len(b); j++ {
			if j < len(a) {
				rids = append(rids, a[j])
			}
			if j < len(b) {
				rids = append(rids, b[j])
			}
		}
	}
	for _, batch := range []int{1, 4, 64, 256} {
		var fetches []extidx.FetchResult
		for rest := rids; len(rest) > 0; {
			k := min(batch, len(rest))
			fetches = append(fetches, extidx.FetchResult{RIDs: rest[:k], Done: k == len(rest)})
			rest = rest[k:]
		}
		for _, tc := range []struct {
			name string
			iter Iterator
		}{
			{"RIDFetch", &RIDFetch{Heap: h, Src: SliceRIDSource(rids)}},
			{"DomainScan", &DomainScan{Methods: &scriptedMethods{batches: fetches}, Heap: h, BatchSize: batch}},
		} {
			c := NewChunk(batch)
			rows := 0
			for {
				before := pool.Stats().Fetches
				if err := tc.iter.NextBatch(c); err != nil {
					t.Fatal(err)
				}
				if c.Len() == 0 {
					break
				}
				pages := map[storage.PageID]bool{}
				for _, r := range c.RIDs {
					pages[storage.RIDFromInt64(r).Page] = true
				}
				if got := pool.Stats().Fetches - before; got > int64(len(pages)) {
					t.Fatalf("%s at batch size %d: a batch of %d RIDs on %d pages made %d page fetches",
						tc.name, batch, c.Len(), len(pages), got)
				}
				rows += c.Len()
			}
			if err := tc.iter.Close(); err != nil {
				t.Fatal(err)
			}
			if rows != n {
				t.Fatalf("%s at batch size %d: %d rows, want %d", tc.name, batch, rows, n)
			}
		}
	}
}

// TestHashAggregateAllocsPerGroup: the group probe reuses its key
// buffers, so a row that joins an existing group allocates nothing and
// the aggregate's allocations grow with the number of groups, not rows.
func TestHashAggregateAllocsPerGroup(t *testing.T) {
	input := func(rows, groups int) []Row {
		out := make([]Row, rows)
		for i := range out {
			out[i] = Row{types.Int(int64(i % groups)), types.Int(int64(i))}
		}
		return out
	}
	col := func(i int) Compiled { return func(r Row) (types.Value, error) { return r[i], nil } }
	allocs := func(rows, groups int) float64 {
		in := input(rows, groups)
		return drainAllocs(t, func() Iterator {
			return &HashAggregate{
				Child:   &Slice{Rows: in},
				GroupBy: []Compiled{col(0)},
				Specs:   []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: col(1)}, {Kind: AggMax, Arg: col(1)}},
			}
		})
	}
	few, many := allocs(1000, 10), allocs(20000, 10)
	t.Logf("10 groups: %.0f allocations over 1,000 rows, %.0f over 20,000", few, many)
	if many > few+2 {
		t.Fatalf("10 groups: %.0f allocations over 1,000 rows, %.0f over 20,000; want the same", few, many)
	}
	// Per group: its map key (two under the race detector, whose
	// instrumentation also copies the probe's key). Keys, cells and
	// output rows grow in slices shared by all groups.
	wide := allocs(20000, 1000)
	t.Logf("1,000 groups over 20,000 rows: %.0f allocations", wide)
	if wide < 1000 || wide > 2*1000+few+64 {
		t.Fatalf("1,000 groups over 20,000 rows allocate %.0f, want at most 2 per group plus %.0f", wide, few+64)
	}
}

func domainScanRowIDs(t *testing.T, rows []Row) []int64 {
	t.Helper()
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].Int64()
	}
	return out
}

func TestDomainScanBatchEdges(t *testing.T) {
	h, rids := propertyHeap(t, 6)
	cases := []struct {
		name    string
		batches []extidx.FetchResult
		want    []int64 // expected row values, in order
		fetches int     // Fetch calls the scan must make — and no more
	}{
		{
			name: "empty-mid-stream",
			batches: []extidx.FetchResult{
				{RIDs: rids[0:2]},
				{}, // empty but not Done: scan must keep fetching
				{RIDs: rids[2:3], Done: true},
			},
			want:    []int64{0, 1, 2},
			fetches: 3,
		},
		{
			name: "done-with-nonempty-final-batch",
			batches: []extidx.FetchResult{
				{RIDs: rids[0:3]},
				{RIDs: rids[3:6], Done: true}, // no trailing null-rowid Fetch
			},
			want:    []int64{0, 1, 2, 3, 4, 5},
			fetches: 2,
		},
		{
			name: "exact-boundary",
			batches: []extidx.FetchResult{
				{RIDs: rids[0:4]}, // exactly BatchSize
				{Done: true},      // classic null-rowid end-of-scan
			},
			want:    []int64{0, 1, 2, 3},
			fetches: 2,
		},
		{
			name:    "immediately-done",
			batches: []extidx.FetchResult{{Done: true}},
			want:    nil,
			fetches: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range []string{"chunk", "rows"} {
				m := &scriptedMethods{batches: tc.batches}
				scan := &DomainScan{Methods: m, Heap: h, BatchSize: 4}
				var rows []Row
				var err error
				if mode == "chunk" {
					rows, err = Drain(scan)
				} else {
					rows, err = drainRows(scan, 1)
				}
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				got := domainScanRowIDs(t, rows)
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("%s: rows %v, want %v", mode, got, tc.want)
				}
				if m.fetches != tc.fetches {
					t.Errorf("%s: %d Fetch calls, want %d", mode, m.fetches, tc.fetches)
				}
				if m.closes != 1 {
					t.Errorf("%s: Close called %d times", mode, m.closes)
				}
			}
		})
	}
}

// TestDomainScanAncillaryPublishing checks that consuming a chunk row by
// row publishes each row's ancillary value to the sink — including NULL
// padding when a batch carries no ancillary data — on both the chunk and
// RowAdapter paths.
func TestDomainScanAncillaryPublishing(t *testing.T) {
	h, rids := propertyHeap(t, 4)
	batches := []extidx.FetchResult{
		{RIDs: rids[0:2], Ancillary: []types.Value{types.Num(0.5), types.Num(1.5)}},
		{RIDs: rids[2:4], Done: true}, // no ancillary: padded with NULLs
	}
	for _, mode := range []string{"chunk", "rows"} {
		sink := &recordSink{}
		scan := &DomainScan{
			Methods:   &scriptedMethods{batches: batches},
			Heap:      h,
			BatchSize: 2,
			Label:     7,
			Sink:      sink,
		}
		var err error
		if mode == "chunk" {
			_, err = drainWith(scan, 2)
		} else {
			_, err = drainRows(scan, 0)
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(sink.vals) != 4 {
			t.Fatalf("%s: %d ancillary publications, want 4", mode, len(sink.vals))
		}
		for i, l := range sink.labels {
			if l != 7 {
				t.Errorf("%s: publication %d has label %d, want 7", mode, i, l)
			}
		}
		if sink.vals[0].Float() != 0.5 || sink.vals[1].Float() != 1.5 {
			t.Errorf("%s: ancillary values %v", mode, sink.vals[:2])
		}
		if !sink.vals[2].IsNull() || !sink.vals[3].IsNull() {
			t.Errorf("%s: missing NULL padding: %v", mode, sink.vals[2:])
		}
	}
}
