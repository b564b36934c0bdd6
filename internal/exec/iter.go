package exec

import (
	"fmt"
	"slices"
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
// from the page image, and unpins it; the scan reads nothing until its
// first NextBatch. The whole heap is h.PageList(); a parallel morsel is
// one PageRanges entry. Statements hold table locks until their result
// is drained, so the page list taken at construction stays valid for
// the scan's lifetime.
//
// Cols, when non-nil, masks the table columns the statement reads: the
// others are skipped in the page image and come back NULL. A page's
// rows are cut from one slab, and slabs are recycled: a page's slab is
// written again only after all of its rows have been emitted and one
// NextBatch boundary has passed, which is exactly the Chunk contract. A
// page can hold more rows than a chunk, and a chunk can span many
// pages. A finished slab is kept only while one of its rows is in the
// chunk being filled; an empty page, or one whose rows all went out
// before the last NextBatch boundary, is decoded over at once. So the
// scan holds one slab per page with rows in the current chunk plus the
// page still being emitted, each grown to fit what it decoded, and in
// steady state allocates only what the strings, objects and arrays it
// decodes need.
type HeapScan struct {
	Cols []bool

	heap  *storage.Heap
	pages []storage.PageID
	cur   *rowSlab   // the page being emitted
	rows  []Row      // cur's decoded rows
	pos   int        // next row of rows to emit
	sent  bool       // some of cur's rows are in the chunk being filled
	spent []*rowSlab // finished pages whose rows are in the chunk being filled
	free  []*rowSlab // slabs no live row uses
}

// NewHeapScan returns a scan over pages of h that decodes every column.
func NewHeapScan(h *storage.Heap, pages []storage.PageID) *HeapScan {
	return &HeapScan{heap: h, pages: pages}
}

// NextBatch implements Iterator.
func (s *HeapScan) NextBatch(c *Chunk) error {
	c.Reset()
	// Rows handed out by earlier calls are dead now: the slabs of pages
	// finished during the last call may be written again.
	for _, b := range s.spent {
		b.recycle()
	}
	s.free = append(s.free, s.spent...)
	s.spent = s.spent[:0]
	s.sent = false
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
		s.sent = true
	}
	return nil
}

// refill decodes the next page's rows into s.rows. Decoding copies all
// byte content, so the rows outlive the page pin.
func (s *HeapScan) refill() error {
	b := s.cur
	switch {
	case b == nil:
		b = new(rowSlab)
	case s.sent:
		// Its last rows are in the chunk being filled.
		s.spent = append(s.spent, b)
		if n := len(s.free); n > 0 {
			b, s.free = s.free[n-1], s.free[:n-1]
		} else {
			// Size the new slab to what that page decoded: pages
			// are alike, and one with no rows never gets here.
			b = &rowSlab{vals: make([]types.Value, 0, len(b.vals)), rows: make([]slabRow, 0, len(s.rows))}
		}
	default:
		// None of its rows is live: decode over it.
		b.recycle()
	}
	s.cur, s.sent = b, false
	page := s.pages[:1]
	s.pages = s.pages[1:]
	s.pos = 0
	err := s.heap.ScanPages(page, func(rid storage.RID, img []byte) (bool, error) {
		return true, b.add(img, rid.Int64(), s.Cols, len(b.rows))
	})
	if err != nil {
		b.recycle()
		s.rows = s.rows[:0]
		return err
	}
	s.rows = slices.Grow(s.rows[:0], len(b.rows))
	b.cut(func(_ int, r Row) { s.rows = append(s.rows, r) })
	return nil
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

	buf  *Chunk
	slab []types.Value // the current batch's output rows
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
	// One slab holds the batch's output rows. They are dead once this
	// call returns again, so the next batch reuses it.
	w := len(p.Exprs)
	poison(p.slab)
	slab := slices.Grow(p.slab[:0], len(p.buf.Rows)*w)[:len(p.buf.Rows)*w]
	p.slab = slab
	for i, r := range p.buf.Rows {
		p.buf.PublishRow(i)
		out := slab[i*w : (i+1)*w : (i+1)*w]
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
	var kept []Row
	buf := NewChunk(batch)
	for {
		if err := s.Child.NextBatch(buf); err != nil {
			return err
		}
		if buf.Len() == 0 {
			break
		}
		// The child may reuse the rows' storage on its next call: keep
		// copies, and cut the batch's sort keys from one slab too.
		kept = keepRows(kept[:0], buf.Rows)
		w := len(s.Keys)
		keys := make([]types.Value, len(kept)*w)
		for i, r := range kept {
			buf.PublishRow(i)
			kv := keys[i*w : (i+1)*w : (i+1)*w]
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
// join keeps working. A batch's output rows are cut from one slab,
// reused by the next batch.
type NestedLoopJoin struct {
	Outer Iterator
	Inner func(outer Row) (Iterator, error)

	outerBuf  *Chunk
	outerPos  int
	outerDone bool
	curInner  Iterator
	innerBuf  *Chunk
	innerPos  int
	slab      []types.Value // the current batch's output rows
}

// NextBatch implements Iterator.
func (j *NestedLoopJoin) NextBatch(c *Chunk) error {
	c.Reset()
	// The last batch's rows are dead. If the slab grew during that
	// batch, its early rows sit in the old array, which is dropped.
	poison(j.slab)
	j.slab = j.slab[:0]
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
				start := len(j.slab)
				j.slab = append(append(j.slab, o...), ir...)
				c.Append(j.slab[start:len(j.slab):len(j.slab)])
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

// rowSlab decodes a batch of heap row images, each with its ROWID
// appended, through a column mask into one slab, and cuts the batch's
// rows from it: one slab per batch instead of one allocation per row.
// The slab is reused: once no live row uses it, recycle empties it and
// the next batch decodes over the old values, so a producer in steady
// state allocates no slab at all.
type rowSlab struct {
	vals  []types.Value // the batch's values, row after row
	rows  []slabRow     // the added rows, in add order
	srids []storage.RID // fetch: the batch's RIDs
	perm  []int         // fetch: the batch's page-sorted visiting order
}

// slabRow is one added row: where it ends in the slab and where its
// producer wants it.
type slabRow struct{ end, at int }

// add decodes img through cols (nil decodes every column), appends rid
// as the ROWID column, and files the row under output position at.
func (b *rowSlab) add(img []byte, rid int64, cols []bool, at int) error {
	vals, _, err := types.AppendDecoded(b.vals, img, cols)
	if err != nil {
		return err
	}
	b.vals = append(vals, types.Int(rid))
	b.rows = append(b.rows, slabRow{end: len(b.vals), at: at})
	return nil
}

// cut calls put with each added row and its output position, in add
// order. Each row's capacity ends at its last column, so an append to
// one row never runs into the next. The rows stay valid until the next
// recycle.
func (b *rowSlab) cut(put func(at int, r Row)) {
	start := 0
	for _, r := range b.rows {
		put(r.at, b.vals[start:r.end:r.end])
		start = r.end
	}
	b.rows = b.rows[:0]
}

// recycle empties the slab for the next batch. The caller guarantees
// that no live row was cut from it; the invariants build poisons the old
// values so that a row kept past that point reads garbage it cannot
// mistake for data.
func (b *rowSlab) recycle() {
	poison(b.vals)
	b.vals, b.rows = b.vals[:0], b.rows[:0]
}

// fetch appends the rows for rids to c, in input order, with the ROWID
// pseudo-column appended and unread columns (cols) NULL. Row images
// come from one page-sorted batched heap read, so each page is pinned
// once per batch instead of once per row. Decoding copies all byte
// content, so rows never alias pinned pages; they are valid until the
// next fetch.
func (b *rowSlab) fetch(h *storage.Heap, rids []int64, cols []bool, c *Chunk) error {
	// The previous batch's rows are dead: one fetch per NextBatch.
	b.recycle()
	if len(rids) == 0 {
		return nil
	}
	b.srids = slices.Grow(b.srids[:0], len(rids))
	b.perm = slices.Grow(b.perm[:0], len(rids))
	b.rows = slices.Grow(b.rows, len(rids))
	for _, r := range rids {
		b.srids = append(b.srids, storage.RIDFromInt64(r))
	}
	// GetBatchFunc visits in page order; each row is filed under its
	// input position.
	if err := h.GetBatchFunc(b.srids, b.perm, func(i int, img []byte) error {
		return b.add(img, rids[i], cols, i)
	}); err != nil {
		return err
	}
	start := len(c.Rows)
	c.Rows = slices.Grow(c.Rows, len(rids))[:start+len(rids)]
	b.cut(func(at int, r Row) { c.Rows[start+at] = r })
	c.RIDs = append(c.RIDs, rids...)
	return nil
}

// RIDFetch turns a stream of packed RIDs into table rows (RID appended),
// batching heap reads page-sorted. It is the table-access stage above
// index scans. Cols masks the columns decoded, as for HeapScan.
type RIDFetch struct {
	Heap *storage.Heap
	Src  func() (int64, bool, error) // next RID; ok=false at end
	Cols []bool

	rids []int64
	slab rowSlab
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
	return f.slab.fetch(f.Heap, f.rids, f.Cols, c)
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
	// Cols masks the columns decoded from the heap, as for HeapScan.
	Cols []bool
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
	slab    rowSlab
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
	if err := d.slab.fetch(d.Heap, rids, d.Cols, c); err != nil {
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

// aggCell is one aggregate's running state within a group; min and max
// are meaningful once filled.
type aggCell struct {
	count      int64
	sum        float64
	minv, maxv types.Value
	filled     bool
}

// fold folds a non-NULL value into min and max.
func (c *aggCell) fold(mn, mx types.Value) {
	if !c.filled {
		c.minv, c.maxv, c.filled = mn, mx, true
		return
	}
	if types.Less(mn, c.minv) {
		c.minv = mn
	}
	if types.Less(c.maxv, mx) {
		c.maxv = mx
	}
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

// evaluate drains the child into the group table. Each row's key values
// and their encoding go into buffers reused across rows, and the probe
// looks the encoding up without converting it to a string, so a row
// that joins an existing group allocates nothing. Groups are numbered in
// first-seen order, and group g's keys and cells live at g's offset in
// two slices that grow as groups arrive, so a new group costs its map
// key and no allocation of its own.
func (h *HashAggregate) evaluate(batch int) error {
	nk, ns := len(h.GroupBy), len(h.Specs)
	groups := map[string]int{}
	var keys []types.Value // group g's key values: keys[g*nk : (g+1)*nk]
	var cells []aggCell    // group g's cells: cells[g*ns : (g+1)*ns]
	n := 0                 // groups so far
	if nk == 0 {
		// An aggregate without GROUP BY has one group, rows or no rows.
		cells, n = make([]aggCell, ns), 1
	}
	probe := make([]types.Value, nk)
	var enc []byte
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
			g := 0
			if nk > 0 {
				for i, e := range h.GroupBy {
					v, err := e(r)
					if err != nil {
						return err
					}
					probe[i] = v
				}
				enc = types.EncodeRow(enc[:0], probe)
				var ok bool
				if g, ok = groups[string(enc)]; !ok {
					g, n = n, n+1
					groups[string(enc)] = g
					keys = append(keys, probe...)
					cells = append(cells, make([]aggCell, ns)...)
				}
			}
			gc := cells[g*ns : (g+1)*ns]
			if h.FromPartial {
				h.mergePartial(gc, r)
				continue
			}
			for i, spec := range h.Specs {
				cell := &gc[i]
				if spec.Kind == AggCountStar {
					cell.count++
					continue
				}
				v, err := spec.Arg(r)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
				}
				cell.count++
				cell.sum += v.Float()
				cell.fold(v, v)
			}
		}
	}
	// The output rows are cut from one slab: one allocation, not one
	// per group.
	w := nk + ns
	if h.Partial {
		w = nk + 4*ns
	}
	slab := make([]types.Value, 0, n*w)
	h.out = make([]Row, 0, n)
	for g := 0; g < n; g++ {
		start := len(slab)
		slab = append(slab, keys[g*nk:(g+1)*nk]...)
		if h.Partial {
			slab = appendPartial(slab, cells[g*ns:(g+1)*ns])
		} else {
			slab = h.appendFinal(slab, cells[g*ns:(g+1)*ns])
		}
		h.out = append(h.out, slab[start:len(slab):len(slab)])
	}
	return nil
}

// appendFinal appends one group's aggregate values, in specification
// order.
func (h *HashAggregate) appendFinal(row Row, cells []aggCell) Row {
	for i, spec := range h.Specs {
		cell := cells[i]
		switch spec.Kind {
		case AggCount, AggCountStar:
			row = append(row, types.Int(cell.count))
		case AggSum:
			if cell.count == 0 {
				row = append(row, types.Null())
			} else {
				row = append(row, types.Num(cell.sum))
			}
		case AggAvg:
			if cell.count == 0 {
				row = append(row, types.Null())
			} else {
				row = append(row, types.Num(cell.sum/float64(cell.count)))
			}
		case AggMin:
			row = append(row, cell.minv) // NULL while unfilled
		case AggMax:
			row = append(row, cell.maxv)
		}
	}
	return row
}

// appendPartial appends one group's raw state: per spec [count, sum,
// min, max] with min/max NULL while unfilled.
func appendPartial(row Row, cells []aggCell) Row {
	for _, cell := range cells {
		row = append(row, types.Int(cell.count), types.Num(cell.sum), cell.minv, cell.maxv)
	}
	return row
}

// mergePartial folds one partial-state row (keys at the front, four
// state columns per spec after them) into the group's cells.
func (h *HashAggregate) mergePartial(cells []aggCell, r Row) {
	for i := range cells {
		base := len(h.GroupBy) + 4*i
		cell := &cells[i]
		cell.count += r[base].Int64()
		cell.sum += r[base+1].Float()
		if mn := r[base+2]; !mn.IsNull() {
			cell.fold(mn, r[base+3])
		}
	}
}

// Close implements Iterator.
func (h *HashAggregate) Close() error { return h.Child.Close() }
