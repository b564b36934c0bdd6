package exec

import (
	"fmt"
	"sort"

	"repro/internal/extidx"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// Heap scan

// HeapScan streams the rows of a list of heap pages, appending the RID
// pseudo-column. Each refill pins one page, decodes its rows straight
// from the page image, and unpins it, so the scan holds at most one
// page's decoded rows and reads nothing until its first NextBatch. The
// whole heap is h.PageList(); a parallel morsel is one PageRanges entry.
// Statements hold table locks until their result is drained, so the page
// list taken at construction stays valid for the scan's lifetime.
type HeapScan struct {
	heap  *storage.Heap
	pages []storage.PageID
	rows  []Row // the current page's decoded rows
	pos   int
}

// NewHeapScan returns a scan over pages of h.
func NewHeapScan(h *storage.Heap, pages []storage.PageID) *HeapScan {
	return &HeapScan{heap: h, pages: pages}
}

// NextBatch implements Iterator.
func (s *HeapScan) NextBatch(c *Chunk) error {
	c.Reset()
	for !c.Full() {
		if s.pos == len(s.rows) {
			if len(s.pages) == 0 {
				return nil
			}
			if err := s.refill(); err != nil {
				return err
			}
			continue
		}
		c.Append(s.rows[s.pos])
		s.pos++
	}
	return nil
}

// refill decodes the next page's rows into s.rows. Decoding copies all
// byte content, so the rows outlive the page pin.
func (s *HeapScan) refill() error {
	page := s.pages[:1]
	s.pages = s.pages[1:]
	s.rows, s.pos = s.rows[:0], 0
	return s.heap.ScanPages(page, func(rid storage.RID, img []byte) (bool, error) {
		row, _, err := types.DecodeRow(img)
		if err != nil {
			return false, err
		}
		s.rows = append(s.rows, append(row, types.Int(rid.Int64())))
		return true, nil
	})
}

// Close implements Iterator.
func (s *HeapScan) Close() error { return nil }

// ---------------------------------------------------------------------------
// Basic combinators

// Filter yields child rows satisfying pred, carrying RIDs and ancillary
// values through for the survivors. The predicate may itself read
// ancillary values (Score in WHERE), so each row is published before
// evaluation.
type Filter struct {
	Child Iterator
	Pred  Compiled

	buf *Chunk
}

// NextBatch implements Iterator.
func (f *Filter) NextBatch(c *Chunk) error {
	c.Reset()
	if f.buf == nil {
		f.buf = NewChunk(c.Max())
	}
	for {
		if err := f.Child.NextBatch(f.buf); err != nil {
			return err
		}
		if f.buf.Len() == 0 {
			return nil
		}
		for i, r := range f.buf.Rows {
			f.buf.PublishRow(i)
			v, err := f.Pred(r)
			if err != nil {
				return err
			}
			if Truthy(v) {
				c.CopyRowFrom(f.buf, i)
			}
		}
		if c.Len() > 0 {
			return nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return f.Child.Close() }

// Project maps child rows through compiled expressions. It is an
// expression-evaluating consumer: each input row's ancillary value is
// published before the expressions run, and output rows carry none.
type Project struct {
	Child Iterator
	Exprs []Compiled

	buf *Chunk
}

// NextBatch implements Iterator.
func (p *Project) NextBatch(c *Chunk) error {
	c.Reset()
	if p.buf == nil {
		p.buf = NewChunk(c.Max())
	}
	if err := p.Child.NextBatch(p.buf); err != nil {
		return err
	}
	for i, r := range p.buf.Rows {
		p.buf.PublishRow(i)
		out := make(Row, len(p.Exprs))
		for j, e := range p.Exprs {
			v, err := e(r)
			if err != nil {
				return err
			}
			out[j] = v
		}
		c.Append(out)
	}
	return nil
}

// Close implements Iterator.
func (p *Project) Close() error { return p.Child.Close() }

// Limit stops after N rows, truncating the chunk that crosses the bound.
type Limit struct {
	Child Iterator
	N     int
	seen  int
}

// NextBatch implements Iterator.
func (l *Limit) NextBatch(c *Chunk) error {
	c.Reset()
	if l.seen >= l.N {
		return nil
	}
	if err := l.Child.NextBatch(c); err != nil {
		return err
	}
	if rem := l.N - l.seen; c.Len() > rem {
		c.Truncate(rem)
	}
	l.seen += c.Len()
	return nil
}

// Close implements Iterator.
func (l *Limit) Close() error { return l.Child.Close() }

// Slice replays a materialized row set.
type Slice struct {
	Rows []Row
	pos  int
}

// NextBatch implements Iterator.
func (s *Slice) NextBatch(c *Chunk) error {
	c.Reset()
	for s.pos < len(s.Rows) && !c.Full() {
		c.Append(s.Rows[s.pos])
		s.pos++
	}
	return nil
}

// Close implements Iterator.
func (s *Slice) Close() error { return nil }

// ---------------------------------------------------------------------------
// Sort / Distinct

// SortKey is one ORDER BY key over the child's output.
type SortKey struct {
	Expr Compiled
	Desc bool
}

// Sort materializes the child and yields rows ordered by the keys. Sort
// keys are evaluated per row as chunks arrive (with the row's ancillary
// value published first); the sorted output carries no ancillary data.
type Sort struct {
	Child Iterator
	Keys  []SortKey

	sorted []Row
	pos    int
	done   bool
}

// NextBatch implements Iterator.
func (s *Sort) NextBatch(c *Chunk) error {
	c.Reset()
	if !s.done {
		if err := s.materialize(c.Max()); err != nil {
			return err
		}
		s.done = true
	}
	for s.pos < len(s.sorted) && !c.Full() {
		c.Append(s.sorted[s.pos])
		s.pos++
	}
	return nil
}

func (s *Sort) materialize(batch int) error {
	type keyed struct {
		row  Row
		keys []types.Value
	}
	var ks []keyed
	buf := NewChunk(batch)
	for {
		if err := s.Child.NextBatch(buf); err != nil {
			return err
		}
		if buf.Len() == 0 {
			break
		}
		for i, r := range buf.Rows {
			buf.PublishRow(i)
			kv := make([]types.Value, len(s.Keys))
			for j, k := range s.Keys {
				v, err := k.Expr(r)
				if err != nil {
					return err
				}
				kv[j] = v
			}
			ks = append(ks, keyed{r, kv})
		}
	}
	if err := s.Child.Close(); err != nil {
		return err
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, k := range s.Keys {
			av, bv := ks[a].keys[j], ks[b].keys[j]
			if types.Identical(av, bv) {
				continue
			}
			less := types.Less(av, bv)
			if k.Desc {
				return !less
			}
			return less
		}
		return false
	})
	s.sorted = make([]Row, len(ks))
	for i := range ks {
		s.sorted[i] = ks[i].row
	}
	return nil
}

// Close implements Iterator.
func (s *Sort) Close() error { return s.Child.Close() }

// Distinct suppresses duplicate rows (by encoded image).
type Distinct struct {
	Child Iterator

	seen    map[string]bool
	buf     *Chunk
	scratch []byte
}

// NextBatch implements Iterator.
func (d *Distinct) NextBatch(c *Chunk) error {
	c.Reset()
	if d.seen == nil {
		d.seen = make(map[string]bool)
	}
	if d.buf == nil {
		d.buf = NewChunk(c.Max())
	}
	for {
		if err := d.Child.NextBatch(d.buf); err != nil {
			return err
		}
		if d.buf.Len() == 0 {
			return nil
		}
		for i, r := range d.buf.Rows {
			d.scratch = types.EncodeRow(d.scratch[:0], r)
			key := string(d.scratch)
			if d.seen[key] {
				continue
			}
			d.seen[key] = true
			c.CopyRowFrom(d.buf, i)
		}
		if c.Len() > 0 {
			return nil
		}
	}
}

// Close implements Iterator.
func (d *Distinct) Close() error { return d.Child.Close() }

// ---------------------------------------------------------------------------
// Joins

// NestedLoopJoin joins an outer iterator with a per-outer-row inner
// iterator factory, concatenating rows. Pushing an index lookup into the
// factory turns it into an index nested-loop join. Output rows replicate
// the outer row's ancillary value, so Score above a domain-scan-driven
// join keeps working.
type NestedLoopJoin struct {
	Outer Iterator
	Inner func(outer Row) (Iterator, error)

	outerBuf  *Chunk
	outerPos  int
	outerDone bool
	curInner  Iterator
	innerBuf  *Chunk
	innerPos  int
}

// NextBatch implements Iterator.
func (j *NestedLoopJoin) NextBatch(c *Chunk) error {
	c.Reset()
	for !c.Full() {
		if j.curInner != nil {
			if j.innerPos >= j.innerBuf.Len() {
				if err := j.curInner.NextBatch(j.innerBuf); err != nil {
					return err
				}
				j.innerPos = 0
				if j.innerBuf.Len() == 0 {
					err := j.curInner.Close()
					j.curInner = nil
					if err != nil {
						return err
					}
					j.outerPos++
					continue
				}
			}
			o := j.outerBuf.Rows[j.outerPos]
			for j.innerPos < j.innerBuf.Len() && !c.Full() {
				ir := j.innerBuf.Rows[j.innerPos]
				j.innerPos++
				out := make(Row, 0, len(o)+len(ir))
				out = append(out, o...)
				out = append(out, ir...)
				c.Append(out)
				if j.outerPos < len(j.outerBuf.Anc) {
					c.Anc = append(c.Anc, j.outerBuf.Anc[j.outerPos])
					c.Label, c.Sink = j.outerBuf.Label, j.outerBuf.Sink
				}
			}
			continue
		}
		if j.outerBuf == nil {
			j.outerBuf = NewChunk(c.Max())
		}
		if j.outerPos >= j.outerBuf.Len() {
			if j.outerDone {
				return nil
			}
			if err := j.Outer.NextBatch(j.outerBuf); err != nil {
				return err
			}
			j.outerPos = 0
			if j.outerBuf.Len() == 0 {
				j.outerDone = true
				return nil
			}
		}
		inner, err := j.Inner(j.outerBuf.Rows[j.outerPos])
		if err != nil {
			return err
		}
		j.curInner = inner
		if j.innerBuf == nil {
			j.innerBuf = NewChunk(c.Max())
		} else {
			j.innerBuf.Reset()
		}
		j.innerPos = 0
	}
	return nil
}

// Close implements Iterator.
func (j *NestedLoopJoin) Close() error {
	var err error
	if j.curInner != nil {
		err = j.curInner.Close()
		j.curInner = nil
	}
	if oerr := j.Outer.Close(); err == nil {
		err = oerr
	}
	return err
}

// ---------------------------------------------------------------------------
// RID fetch

// fetchRows appends the decoded rows for rids to c, in input order, with
// the ROWID pseudo-column appended. Row images come from one page-sorted
// batched heap read, so each page is pinned once per batch instead of
// once per row. Decoding copies all byte content, so rows never alias
// pinned pages.
func fetchRows(h *storage.Heap, rids []int64, c *Chunk) error {
	if len(rids) == 0 {
		return nil
	}
	srids := make([]storage.RID, len(rids))
	for i, r := range rids {
		srids[i] = storage.RIDFromInt64(r)
	}
	start := len(c.Rows)
	c.Rows = append(c.Rows, make([]Row, len(rids))...)
	if err := h.GetBatchFunc(srids, func(i int, img []byte) error {
		row, _, err := types.DecodeRow(img)
		if err != nil {
			return err
		}
		c.Rows[start+i] = append(row, types.Int(rids[i]))
		return nil
	}); err != nil {
		c.Rows = c.Rows[:start]
		return err
	}
	c.RIDs = append(c.RIDs, rids...)
	return nil
}

// RIDFetch turns a stream of packed RIDs into full table rows (RID
// appended), batching heap reads page-sorted. It is the table-access
// stage above index scans.
type RIDFetch struct {
	Heap *storage.Heap
	Src  func() (int64, bool, error) // next RID; ok=false at end

	rids []int64
}

// NextBatch implements Iterator.
func (f *RIDFetch) NextBatch(c *Chunk) error {
	c.Reset()
	f.rids = f.rids[:0]
	for len(f.rids) < c.Max() {
		rid, ok, err := f.Src()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		f.rids = append(f.rids, rid)
	}
	return fetchRows(f.Heap, f.rids, c)
}

// Close implements Iterator.
func (f *RIDFetch) Close() error { return nil }

// SliceRIDSource adapts a materialized RID list to a RIDFetch source.
func SliceRIDSource(rids []int64) func() (int64, bool, error) {
	i := 0
	return func() (int64, bool, error) {
		if i >= len(rids) {
			return 0, false, nil
		}
		r := rids[i]
		i++
		return r, true, nil
	}
}

// ---------------------------------------------------------------------------
// Domain index scan

// AncillarySink receives per-row ancillary values keyed by label while a
// domain scan's rows are consumed; the Env implementation exposes them to
// ancillary operators (Score) evaluated higher in the plan.
type AncillarySink interface {
	SetAncillary(label int64, v types.Value)
}

// DomainScan drives a cartridge's ODCIIndex scan routines as a pipelined
// row source: Start on first NextBatch, batched Fetch as the consumer
// pulls, Close on Close. Each ODCI Fetch batch becomes one chunk — the
// single-step execution model the paper credits for the text cartridge's
// 10× speedup, now preserved through the whole plan tree.
type DomainScan struct {
	Methods extidx.IndexMethods
	Server  extidx.Server
	Info    extidx.IndexInfo
	Call    extidx.OperatorCall
	Heap    *storage.Heap
	// BatchSize is passed to Fetch (<=0 lets the cartridge choose) and is
	// the chunk size this scan produces.
	BatchSize int
	// Label tags ancillary values for this operator invocation (0 = no
	// ancillary wiring).
	Label int64
	Sink  AncillarySink
	// Fetches counts this scan's ODCIIndexFetch crossings: one atomic
	// per-scan counter replacing the former plain-int/shared-pointer
	// pair. Engine-wide totals come from the ODCI boundary observer
	// (obs.ODCIStats), not from threading a DB counter into every scan.
	Fetches obs.Counter
	// Pre, when PreStarted, is a scan partition opened up front by
	// ODCIIndexStartParallel (extidx.ParallelMethods): NextBatch skips
	// Start and fetches from it directly. Close still runs
	// ODCIIndexClose on the partition even if it was never fetched, so
	// an exchange draining unpulled morsels releases cartridge state.
	Pre        extidx.ScanState
	PreStarted bool

	started bool
	state   extidx.ScanState
	buf     []int64
	anc     []types.Value
	pos     int
	done    bool
}

// NextBatch implements Iterator.
func (d *DomainScan) NextBatch(c *Chunk) error {
	c.Reset()
	if !d.started {
		if d.PreStarted {
			d.state = d.Pre
		} else {
			st, err := d.Methods.Start(d.Server, d.Info, d.Call)
			if err != nil {
				return fmt.Errorf("ODCIIndexStart(%s): %w", d.Info.IndexName, err)
			}
			d.state = st
		}
		d.started = true
	}
	for {
		if d.pos < len(d.buf) {
			return d.emitBatch(c)
		}
		if d.done {
			return nil
		}
		res, st, err := d.Methods.Fetch(d.Server, d.state, d.BatchSize)
		if err != nil {
			return fmt.Errorf("ODCIIndexFetch(%s): %w", d.Info.IndexName, err)
		}
		d.state = st
		d.Fetches.Inc()
		if err := res.Validate(); err != nil {
			return fmt.Errorf("ODCIIndexFetch(%s): %w", d.Info.IndexName, err)
		}
		d.buf, d.anc, d.pos, d.done = res.RIDs, res.Ancillary, 0, res.Done
	}
}

// emitBatch turns the rest of the buffered Fetch batch into one chunk via
// the page-sorted heap read.
func (d *DomainScan) emitBatch(c *Chunk) error {
	rids := d.buf[d.pos:]
	var anc []types.Value
	if d.anc != nil {
		anc = d.anc[d.pos:]
	}
	d.pos = len(d.buf)
	if err := fetchRows(d.Heap, rids, c); err != nil {
		return err
	}
	if d.Label != 0 && d.Sink != nil {
		c.Label, c.Sink = d.Label, d.Sink
		if anc != nil {
			c.Anc = append(c.Anc, anc...)
		} else {
			for range rids {
				c.Anc = append(c.Anc, types.Null())
			}
		}
	}
	return nil
}

// Close implements Iterator.
func (d *DomainScan) Close() error {
	st, open := d.state, d.started
	if !open && d.PreStarted {
		// Never fetched, but the partition was opened by StartParallel;
		// it still owes the cartridge an ODCIIndexClose.
		st, open = d.Pre, true
	}
	d.started, d.PreStarted = false, false
	if open {
		if err := d.Methods.Close(d.Server, st); err != nil {
			return fmt.Errorf("ODCIIndexClose(%s): %w", d.Info.IndexName, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Aggregation

// AggKind enumerates supported aggregate functions.
type AggKind int

// Aggregates.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
)

// AggSpec is one aggregate in the select list.
type AggSpec struct {
	Kind AggKind
	Arg  Compiled // nil for COUNT(*)
}

// HashAggregate groups child rows by the group-key expressions and
// computes the aggregates; output rows are group keys followed by
// aggregate values, in specification order.
//
// For partitioned (parallel) aggregation the operator splits into two
// halves. A Partial instance runs inside each exchange worker and emits
// raw group states instead of final values: each output row is the
// group keys followed by four columns per spec — count, sum, min, max
// (min/max NULL while unfilled). A FromPartial instance above the
// exchange re-groups those rows (its GroupBy must project the key
// columns) and merges the states — counts and sums add, min/max fold —
// before the usual finalization, so AVG and NULL-on-empty semantics
// come out identical to the serial operator.
type HashAggregate struct {
	Child   Iterator
	GroupBy []Compiled
	Specs   []AggSpec
	// Partial emits per-group partial states (see type comment).
	Partial bool
	// FromPartial merges partial-state child rows (see type comment).
	FromPartial bool
	out         []Row
	pos         int
	evaluated   bool
}

type aggState struct {
	keys   []types.Value
	count  []int64
	sum    []float64
	minv   []types.Value
	maxv   []types.Value
	filled []bool
}

// NextBatch implements Iterator.
func (h *HashAggregate) NextBatch(c *Chunk) error {
	c.Reset()
	if !h.evaluated {
		if err := h.evaluate(c.Max()); err != nil {
			return err
		}
		h.evaluated = true
	}
	for h.pos < len(h.out) && !c.Full() {
		c.Append(h.out[h.pos])
		h.pos++
	}
	return nil
}

func (h *HashAggregate) evaluate(batch int) error {
	groups := map[string]*aggState{}
	var order []string
	buf := NewChunk(batch)
	for {
		if err := h.Child.NextBatch(buf); err != nil {
			return err
		}
		if buf.Len() == 0 {
			break
		}
		for ri, r := range buf.Rows {
			buf.PublishRow(ri)
			keys := make([]types.Value, len(h.GroupBy))
			for i, g := range h.GroupBy {
				v, err := g(r)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			gk := string(types.EncodeRow(nil, keys))
			st, ok := groups[gk]
			if !ok {
				st = &aggState{
					keys:   keys,
					count:  make([]int64, len(h.Specs)),
					sum:    make([]float64, len(h.Specs)),
					minv:   make([]types.Value, len(h.Specs)),
					maxv:   make([]types.Value, len(h.Specs)),
					filled: make([]bool, len(h.Specs)),
				}
				groups[gk] = st
				order = append(order, gk)
			}
			if h.FromPartial {
				h.mergePartial(st, r)
				continue
			}
			for i, spec := range h.Specs {
				if spec.Kind == AggCountStar {
					st.count[i]++
					continue
				}
				v, err := spec.Arg(r)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
				}
				st.count[i]++
				st.sum[i] += v.Float()
				if !st.filled[i] {
					st.minv[i], st.maxv[i] = v, v
					st.filled[i] = true
					continue
				}
				if types.Less(v, st.minv[i]) {
					st.minv[i] = v
				}
				if types.Less(st.maxv[i], v) {
					st.maxv[i] = v
				}
			}
		}
	}
	// A global aggregate (no GROUP BY) over zero rows still yields one row.
	if len(order) == 0 && len(h.GroupBy) == 0 {
		st := &aggState{
			count:  make([]int64, len(h.Specs)),
			sum:    make([]float64, len(h.Specs)),
			minv:   make([]types.Value, len(h.Specs)),
			maxv:   make([]types.Value, len(h.Specs)),
			filled: make([]bool, len(h.Specs)),
		}
		groups[""] = st
		order = append(order, "")
	}
	for _, gk := range order {
		st := groups[gk]
		if h.Partial {
			h.out = append(h.out, partialRow(st, len(h.Specs)))
			continue
		}
		row := make(Row, 0, len(st.keys)+len(h.Specs))
		row = append(row, st.keys...)
		for i, spec := range h.Specs {
			switch spec.Kind {
			case AggCount, AggCountStar:
				row = append(row, types.Int(st.count[i]))
			case AggSum:
				if st.count[i] == 0 {
					row = append(row, types.Null())
				} else {
					row = append(row, types.Num(st.sum[i]))
				}
			case AggAvg:
				if st.count[i] == 0 {
					row = append(row, types.Null())
				} else {
					row = append(row, types.Num(st.sum[i]/float64(st.count[i])))
				}
			case AggMin:
				if !st.filled[i] {
					row = append(row, types.Null())
				} else {
					row = append(row, st.minv[i])
				}
			case AggMax:
				if !st.filled[i] {
					row = append(row, types.Null())
				} else {
					row = append(row, st.maxv[i])
				}
			}
		}
		h.out = append(h.out, row)
	}
	return nil
}

// partialRow renders one group's raw state: keys, then per spec
// [count, sum, min, max] with min/max NULL while unfilled.
func partialRow(st *aggState, nSpecs int) Row {
	row := make(Row, 0, len(st.keys)+4*nSpecs)
	row = append(row, st.keys...)
	for i := 0; i < nSpecs; i++ {
		row = append(row, types.Int(st.count[i]), types.Num(st.sum[i]))
		if st.filled[i] {
			row = append(row, st.minv[i], st.maxv[i])
		} else {
			row = append(row, types.Null(), types.Null())
		}
	}
	return row
}

// mergePartial folds one partial-state row (keys at the front, four
// state columns per spec after them) into the group state.
func (h *HashAggregate) mergePartial(st *aggState, r Row) {
	for i := range h.Specs {
		base := len(h.GroupBy) + 4*i
		st.count[i] += r[base].Int64()
		st.sum[i] += r[base+1].Float()
		mn, mx := r[base+2], r[base+3]
		if mn.IsNull() {
			continue
		}
		if !st.filled[i] {
			st.minv[i], st.maxv[i] = mn, mx
			st.filled[i] = true
			continue
		}
		if types.Less(mn, st.minv[i]) {
			st.minv[i] = mn
		}
		if types.Less(st.maxv[i], mx) {
			st.maxv[i] = mx
		}
	}
}

// Close implements Iterator.
func (h *HashAggregate) Close() error { return h.Child.Close() }
