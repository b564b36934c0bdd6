// Fixture for the chunkalias analyzer: a *Chunk parameter is caller-owned
// and recycled, so the callee must not retain the pointer or its
// Rows/RIDs/Anc slices past return. Individual Rows are safe to keep.
package chunkfix

type Row struct{ V int }

type Chunk struct {
	Rows []Row
	RIDs []int64
}

type Op struct {
	ch    *Chunk
	saved []Row
	rids  map[int]([]int64)
	cb    func() int
	last  Row
}

func (o *Op) NextBatch(c *Chunk) {
	o.ch = c         // want:chunkalias
	o.saved = c.Rows // want:chunkalias
	rows := c.Rows
	o.saved = rows[:1]                     // want:chunkalias
	o.rids[0] = c.RIDs                     // want:chunkalias
	o.cb = func() int { return len(rows) } // want:chunkalias
	go consume(c.Rows)                     // want:chunkalias

	// All legal: append copies, single rows are never recycled, and
	// writes into the chunk are the producer filling it.
	o.saved = append(o.saved, c.Rows...)
	o.last = c.Rows[0]
	c.Rows = c.Rows[:0]
	c.RIDs = append(c.RIDs, 7)
	local := c
	_ = local
}

// SendBatch exercises the exchange-handoff rule: the caller-owned chunk
// (or a local alias, or its slices) must never cross a channel; a chunk
// freshly allocated by the sender may.
func (o *Op) SendBatch(c *Chunk, out chan *Chunk, rowsCh chan []Row) {
	out <- c         // want:chunkalias
	rowsCh <- c.Rows // want:chunkalias
	alias := c
	out <- alias // want:chunkalias

	// Legal: the sender allocates a fresh chunk for the handoff and
	// never touches it again (the Exchange worker pattern).
	ck := &Chunk{Rows: append([]Row(nil), c.Rows...)}
	out <- ck
}

// NoChunk has no *Chunk parameter; field stores of its own buffers are its
// business.
func (o *Op) NoChunk(rows []Row) {
	o.saved = rows
}

func consume(rows []Row) {}
