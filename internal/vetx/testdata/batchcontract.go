// Fixture for the batchcontract analyzer. Typechecked by the tests under
// the import path repro/internal/exec, against the miniature storage
// package in batchstorage/.
package exec

import "repro/internal/storage"

type cacheT struct{}

func (cacheT) Get(k int64) ([]byte, error) { return nil, nil }

// heapCache only carries "heap" in its name: it is not a storage.Heap.
type heapCache struct{}

func (heapCache) Get(k int64) ([]byte, error) { return nil, nil }

type fetchOp struct{ Heap *storage.Heap }

// perRowFetch re-serializes a batch into one heap pin per row.
func perRowFetch(op fetchOp, rids []storage.RID) error {
	for _, rid := range rids {
		if _, err := op.Heap.Get(rid); err != nil { // want:batchcontract
			return err
		}
	}
	return nil
}

// slabFetch is the same defect on a heap held in a variable whose name
// says nothing about it.
func slabFetch(h *storage.Heap, rids []storage.RID, out [][]byte) error {
	for i, rid := range rids {
		img, err := h.Get(rid) // want:batchcontract
		if err != nil {
			return err
		}
		out[i] = img
	}
	return nil
}

// nestedFetch exercises the nested-loop dedup: the call sits in two
// enclosing loops but must be reported once.
func nestedFetch(heap *storage.Heap, groups [][]storage.RID) {
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			heap.Get(g[i]) // want:batchcontract
		}
	}
}

// singleFetch calls Get straight-line (a single-row lookup) — clean.
func singleFetch(op fetchOp, rid storage.RID) ([]byte, error) { return op.Heap.Get(rid) }

// batchedFetch uses the page-sorted batch read inside its loop — clean.
func batchedFetch(heap *storage.Heap, batches [][]storage.RID) error {
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

// heapCacheLoop calls Get on a receiver named like a heap that is not a
// storage.Heap — clean.
func heapCacheLoop(heap heapCache, keys []int64) {
	for _, k := range keys {
		heap.Get(k)
	}
}
