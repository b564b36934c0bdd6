// Fixture storage package for the batchcontract analyzer test: the heap
// read surface of internal/storage in miniature. The test typechecks it
// under the import path repro/internal/storage.
package storage

type RID struct {
	Page uint32
	Slot uint16
}

type Heap struct{}

func (h *Heap) Get(rid RID) ([]byte, error) { return nil, nil }
func (h *Heap) GetBatchFunc(rids []RID, perm []int, fn func(int, []byte) error) error {
	return nil
}
