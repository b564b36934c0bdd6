// Fixture for the batchcontract analyzer. Parsed (not compiled) by the
// tests under the import path repro/internal/exec.
package exec

type heapT struct{}

func (heapT) Get(rid int64) ([]byte, error) { return nil, nil }
func (heapT) GetBatchFunc(rids []int64, perm []int, fn func(int, []byte) error) error {
	return nil
}

type cacheT struct{}

func (cacheT) Get(k int64) ([]byte, error) { return nil, nil }

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
		if err := heap.GetBatchFunc(rids, nil, func(i int, img []byte) error { return nil }); err != nil {
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
