// Package hashidx implements a page-backed chained hash index, the
// engine's built-in equality access method (the paper's "Hashed Index"
// baseline). Keys are arbitrary byte strings; duplicates are allowed, so a
// secondary index simply stores (column-key → RID) pairs.
package hashidx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/storage"
)

// Index is a static-directory chained hash index. It is not safe for
// concurrent use.
type Index struct {
	pager   *storage.Pager
	dir     storage.PageID // directory page listing bucket heads
	buckets []*storage.Heap
	nb      int
}

// DefaultBuckets is the directory size used when 0 is passed to Create.
const DefaultBuckets = 256

// Create allocates a hash index with nb bucket chains (DefaultBuckets
// when nb <= 0).
func Create(p *storage.Pager, nb int) (*Index, error) {
	if nb <= 0 {
		nb = DefaultBuckets
	}
	maxDir := (storage.PageSize - 8) / 4
	if nb > maxDir {
		return nil, fmt.Errorf("hashidx: %d buckets exceeds directory capacity %d", nb, maxDir)
	}
	idx := &Index{pager: p, nb: nb}
	dirPg, err := p.NewPage()
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(dirPg.Data[0:4], uint32(nb))
	for i := 0; i < nb; i++ {
		h, err := storage.CreateHeap(p)
		if err != nil {
			p.Unpin(dirPg, true)
			return nil, err
		}
		idx.buckets = append(idx.buckets, h)
		binary.BigEndian.PutUint32(dirPg.Data[8+i*4:12+i*4], uint32(h.FirstPage()))
	}
	idx.dir = dirPg.ID
	p.Unpin(dirPg, true)
	return idx, nil
}

// Open reattaches to an index created earlier, given its directory page.
func Open(p *storage.Pager, dir storage.PageID) (*Index, error) {
	pg, err := p.Fetch(dir)
	if err != nil {
		return nil, err
	}
	nb := int(binary.BigEndian.Uint32(pg.Data[0:4]))
	heads := make([]storage.PageID, nb)
	for i := 0; i < nb; i++ {
		heads[i] = storage.PageID(binary.BigEndian.Uint32(pg.Data[8+i*4 : 12+i*4]))
	}
	p.Unpin(pg, false)
	idx := &Index{pager: p, dir: dir, nb: nb}
	for _, head := range heads {
		h, err := storage.OpenHeap(p, head)
		if err != nil {
			return nil, err
		}
		idx.buckets = append(idx.buckets, h)
	}
	return idx, nil
}

// DirPage returns the page identifying this index for Open.
func (x *Index) DirPage() storage.PageID { return x.dir }

func (x *Index) bucketOf(key []byte) *storage.Heap {
	h := fnv.New32a()
	h.Write(key)
	return x.buckets[int(h.Sum32())%x.nb]
}

func encodeEntry(key, val []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	return append(out, val...)
}

func decodeEntry(rec []byte) (key, val []byte, err error) {
	kl, sz := binary.Uvarint(rec)
	if sz <= 0 || uint64(len(rec)-sz) < kl {
		return nil, nil, fmt.Errorf("hashidx: corrupt entry")
	}
	return rec[sz : sz+int(kl)], rec[sz+int(kl):], nil
}

// Insert adds a (key, val) pair. Duplicate pairs are stored as given.
func (x *Index) Insert(key, val []byte) error {
	_, err := x.bucketOf(key).Insert(encodeEntry(key, val))
	return err
}

// Lookup returns every value stored under key.
func (x *Index) Lookup(key []byte) ([][]byte, error) {
	var out [][]byte
	err := x.bucketOf(key).Scan(func(_ storage.RID, rec []byte) (bool, error) {
		k, v, err := decodeEntry(rec)
		if err != nil {
			return false, err
		}
		if bytes.Equal(k, key) {
			out = append(out, append([]byte(nil), v...))
		}
		return true, nil
	})
	return out, err
}

// Delete removes one entry exactly matching (key, val); it reports
// whether a matching entry existed.
func (x *Index) Delete(key, val []byte) (bool, error) {
	var target storage.RID
	found := false
	err := x.bucketOf(key).Scan(func(rid storage.RID, rec []byte) (bool, error) {
		k, v, err := decodeEntry(rec)
		if err != nil {
			return false, err
		}
		if bytes.Equal(k, key) && bytes.Equal(v, val) {
			target, found = rid, true
			return false, nil
		}
		return true, nil
	})
	if err != nil || !found {
		return false, err
	}
	return true, x.bucketOf(key).Delete(target)
}

// Truncate empties the index.
func (x *Index) Truncate() error {
	dirPg, err := x.pager.Fetch(x.dir)
	if err != nil {
		return err
	}
	x.pager.WillWrite(dirPg)
	for i, b := range x.buckets {
		if err := b.Truncate(); err != nil {
			x.pager.Unpin(dirPg, true)
			return err
		}
		binary.BigEndian.PutUint32(dirPg.Data[8+i*4:12+i*4], uint32(b.FirstPage()))
	}
	x.pager.Unpin(dirPg, true)
	return nil
}

// Drop releases every page of the index.
func (x *Index) Drop() {
	for _, b := range x.buckets {
		b.Drop()
	}
	x.pager.Free(x.dir)
	x.buckets = nil
}

// Count returns the number of stored entries.
func (x *Index) Count() (int, error) {
	total := 0
	for _, b := range x.buckets {
		n, err := b.Count()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
