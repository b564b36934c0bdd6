package exec

import "repro/internal/types"

// DefaultChunkSize is the row capacity operators aim for when the caller
// does not request a specific batch size.
const DefaultChunkSize = 256

// Chunk is the unit of data flow between operators: a bounded run of rows
// plus, when the producer is a scan, the parallel RIDs and per-row
// ancillary values of those rows. One ODCI Fetch batch becomes one chunk,
// so the cartridge's batch contract survives all the way up the plan tree
// instead of being re-serialized into per-row pulls.
//
// Protocol: a consumer calls NextBatch(c); the producer Resets c and
// appends rows. A chunk left empty after NextBatch returns means end of
// stream — producers must therefore loop internally over empty
// mid-stream batches (an index scan may legitimately return zero RIDs
// without being done).
//
// Row lifetime: the rows a NextBatch call hands out are valid until the
// same producer's next NextBatch. Producers that build rows (HeapScan,
// RIDFetch, DomainScan, Project, NestedLoopJoin) cut them from slabs
// they recycle, so a steady-state scan allocates no row storage. A
// consumer that keeps rows longer copies them once, one slab per batch
// (keepRows): Drain, Sort and the Exchange worker do. Operators that
// pass rows through (Filter, Limit, Distinct, Instrument) hand a row on
// within the call that received it, so its lifetime is their own next
// NextBatch; NestedLoopJoin holds its outer row only while its outer
// chunk is not refilled, and HashAggregate keeps Values, which are
// copied by value, never rows. The invariants build overwrites a
// recycled slab with a poison value, so a row kept too long reads
// garbage instead of a later row.
//
// Ancillary values ride from the scan through row-preserving operators
// (Filter, Limit, the outer side of a join) to the first
// expression-evaluating consumer, which must call PublishRow(i) before
// evaluating expressions over Rows[i] so ancillary operators (Score)
// observe the value belonging to that row.
type Chunk struct {
	Rows []Row
	// RIDs, when non-empty, parallels Rows with the packed RID each row
	// came from. Operators that reshape rows (Project, Sort, aggregates,
	// joins) drop it.
	RIDs []int64
	// Anc, when non-empty, parallels Rows with the ancillary value the
	// scan attached to each row, tagged by Label for Sink.
	Anc   []types.Value
	Label int64
	Sink  AncillarySink

	max int
}

// NewChunk returns an empty chunk with the given target capacity
// (<= 0 selects DefaultChunkSize).
func NewChunk(max int) *Chunk {
	if max <= 0 {
		max = DefaultChunkSize
	}
	return &Chunk{max: max}
}

// Max is the number of rows the producer should aim for per batch.
func (c *Chunk) Max() int {
	if c.max <= 0 {
		return DefaultChunkSize
	}
	return c.max
}

// Len is the number of rows currently in the chunk.
func (c *Chunk) Len() int { return len(c.Rows) }

// Full reports whether the chunk reached its target capacity.
func (c *Chunk) Full() bool { return len(c.Rows) >= c.Max() }

// Reset empties the chunk (keeping backing arrays) so a producer can
// refill it.
func (c *Chunk) Reset() {
	c.Rows = c.Rows[:0]
	c.RIDs = c.RIDs[:0]
	c.Anc = c.Anc[:0]
	c.Label = 0
	c.Sink = nil
}

// Append adds a plain row with no RID or ancillary value.
func (c *Chunk) Append(r Row) { c.Rows = append(c.Rows, r) }

// Truncate drops rows beyond n, keeping parallel slices in sync.
func (c *Chunk) Truncate(n int) {
	if n >= len(c.Rows) {
		return
	}
	c.Rows = c.Rows[:n]
	if len(c.RIDs) > n {
		c.RIDs = c.RIDs[:n]
	}
	if len(c.Anc) > n {
		c.Anc = c.Anc[:n]
	}
}

// CopyRowFrom appends row i of src, carrying its RID and ancillary value
// (and src's label/sink wiring) when present. Row-preserving operators
// use it so ancillary data survives them.
func (c *Chunk) CopyRowFrom(src *Chunk, i int) {
	c.Rows = append(c.Rows, src.Rows[i])
	if i < len(src.RIDs) {
		c.RIDs = append(c.RIDs, src.RIDs[i])
	}
	if i < len(src.Anc) {
		c.Anc = append(c.Anc, src.Anc[i])
		c.Label, c.Sink = src.Label, src.Sink
	}
}

// PublishRow pushes row i's ancillary value to the sink under the chunk's
// label. Expression-evaluating consumers call it before evaluating
// anything over Rows[i]; it is a no-op for chunks without ancillary data.
func (c *Chunk) PublishRow(i int) {
	if c.Sink == nil || c.Label == 0 || i >= len(c.Anc) {
		return
	}
	c.Sink.SetAncillary(c.Label, c.Anc[i])
}

// Drain pulls every row out of a batch iterator chunk-wise and closes it.
// The rows are copied, one slab per batch, so they outlive the iterator.
func Drain(it Iterator) ([]Row, error) {
	defer it.Close()
	c := NewChunk(0)
	var out []Row
	for {
		if err := it.NextBatch(c); err != nil {
			return nil, err
		}
		if c.Len() == 0 {
			return out, nil
		}
		out = keepRows(out, c.Rows)
	}
}

// keepRows appends copies of rows to dst, cut from one fresh slab, so
// they stay valid after their producer's next NextBatch. dst may share
// rows' backing array (dst = rows[:0]): row i is read before slot i is
// written.
func keepRows(dst, rows []Row) []Row {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	slab := make([]types.Value, 0, n)
	for _, r := range rows {
		start := len(slab)
		slab = append(slab, r...)
		dst = append(dst, slab[start:len(slab):len(slab)])
	}
	return dst
}

// poisonValue is what the invariants build writes over a recycled slab.
var poisonValue = types.Str("\x00exec: row read after its producer's next NextBatch")

// poison overwrites vals with poisonValue in the invariants build; a
// producer calls it before reusing storage that rows were cut from.
func poison(vals []types.Value) {
	if invariantsEnabled {
		for i := range vals {
			vals[i] = poisonValue
		}
	}
}
