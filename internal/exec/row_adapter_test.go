package exec

import "slices"

// RowAdapter exposes a batch iterator one row at a time. It is the
// reference side of the row-vs-batch parity property: it buffers one
// chunk and publishes each row's ancillary value as the row is handed
// out, so by the time a caller evaluates expressions over the returned
// row, the sink holds that row's ancillary value.
type RowAdapter struct {
	Child Iterator
	// BatchSize is the chunk size pulled from the child (<= 0 selects
	// DefaultChunkSize).
	BatchSize int

	buf  *Chunk
	pos  int
	done bool
}

// Next returns the next row, or (nil, nil) at end of stream. The row is
// valid until the adapter pulls its child's next batch.
func (a *RowAdapter) Next() (Row, error) {
	for {
		if a.buf != nil && a.pos < a.buf.Len() {
			a.buf.PublishRow(a.pos)
			r := a.buf.Rows[a.pos]
			a.pos++
			return r, nil
		}
		if a.done {
			return nil, nil
		}
		if a.buf == nil {
			a.buf = NewChunk(a.BatchSize)
		}
		if err := a.Child.NextBatch(a.buf); err != nil {
			return nil, err
		}
		a.pos = 0
		if a.buf.Len() == 0 {
			a.done = true
			return nil, nil
		}
	}
}

// drainRows pulls every row of it through a RowAdapter with the given
// chunk size and closes the iterator. Parity tests compare it against
// Drain. A row is valid only until the adapter's next pull from its
// child, so each kept row is copied.
func drainRows(it Iterator, batch int) ([]Row, error) {
	defer it.Close()
	a := &RowAdapter{Child: it, BatchSize: batch}
	var out []Row
	for {
		r, err := a.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, slices.Clone(r))
	}
}
