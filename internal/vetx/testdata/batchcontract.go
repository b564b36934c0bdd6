// Fixture for the batchcontract analyzer. Parsed (not compiled) by the
// tests under the import path repro/internal/exec.
package exec

type Row []int

type Chunk struct{ Rows []Row }

type heapT struct{}

func (heapT) Get(rid int64) ([]byte, error)      { return nil, nil }
func (heapT) GetBatchFunc(rids []int64, fn func(int, []byte) error) error { return nil }

type cacheT struct{}

func (cacheT) Get(k int64) ([]byte, error) { return nil, nil }

// legacyScan still speaks row-at-a-time Volcano: Next/Close with no
// NextBatch. This no longer satisfies exec.Iterator.
type legacyScan struct{ pos int }

func (l *legacyScan) Next() (Row, error) { // want:batchcontract
	l.pos++
	return nil, nil
}

func (l *legacyScan) Close() error { return nil }

// batchScan is the sanctioned shape: NextBatch + Close.
type batchScan struct{}

func (b *batchScan) NextBatch(c *Chunk) error { return nil }
func (b *batchScan) Close() error             { return nil }

// notAnIterator has a two-result Next but no Close; it is not an
// operator, so rule 1 leaves it alone.
type notAnIterator struct{}

func (notAnIterator) Next() (Row, error) { return nil, nil }

type fetchOp struct{ Heap heapT }

// perRowFetch re-serializes a batch into one heap pin per row.
func perRowFetch(op fetchOp, rids []int64) error {
	for _, rid := range rids {
		if _, err := op.Heap.Get(rid); err != nil { // want:batchcontract
			return err
		}
	}
	return nil
}

// nestedFetch exercises the nested-loop dedup: the call sits in two
// enclosing loops but must be reported once.
func nestedFetch(heap heapT, groups [][]int64) {
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			heap.Get(g[i]) // want:batchcontract
		}
	}
}

// singleFetch calls Get straight-line (a single-row lookup) — clean.
func singleFetch(op fetchOp, rid int64) ([]byte, error) { return op.Heap.Get(rid) }

// batchedFetch uses the page-sorted batch read inside its loop — clean.
func batchedFetch(heap heapT, batches [][]int64) error {
	for _, rids := range batches {
		if err := heap.GetBatchFunc(rids, func(i int, img []byte) error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

// cacheLoop calls Get on a non-heap receiver in a loop — clean.
func cacheLoop(c cacheT, keys []int64) {
	for _, k := range keys {
		c.Get(k)
	}
}
