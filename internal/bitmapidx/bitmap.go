// Package bitmapidx implements the engine's built-in bitmap index for
// low-cardinality columns, the second native indexing scheme the paper
// names alongside B-trees. Row sets are held in compressed bitmaps
// (roaring-style: 64 Ki-row containers stored as sorted arrays while
// sparse and as raw bitsets once dense), keyed by the packed int64 form of
// the row's RID.
package bitmapidx

import (
	"math/bits"
	"sort"
)

const (
	containerBits  = 16
	containerSpan  = 1 << containerBits
	arrayThreshold = 4096 // entries; above this an array converts to a bitset
)

// container holds 2^16 consecutive row positions, as either a sorted
// uint16 array (sparse) or a 1 KiWord bitset (dense).
type container struct {
	array  []uint16
	bitset []uint64 // len 1024 when non-nil
}

func (c *container) add(lo uint16) bool {
	if c.bitset != nil {
		w, b := lo>>6, uint64(1)<<(lo&63)
		if c.bitset[w]&b != 0 {
			return false
		}
		c.bitset[w] |= b
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	if i < len(c.array) && c.array[i] == lo {
		return false
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = lo
	if len(c.array) > arrayThreshold {
		c.toBitset()
	}
	return true
}

func (c *container) remove(lo uint16) bool {
	if c.bitset != nil {
		w, b := lo>>6, uint64(1)<<(lo&63)
		if c.bitset[w]&b == 0 {
			return false
		}
		c.bitset[w] &^= b
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	if i >= len(c.array) || c.array[i] != lo {
		return false
	}
	c.array = append(c.array[:i], c.array[i+1:]...)
	return true
}

func (c *container) contains(lo uint16) bool {
	if c.bitset != nil {
		return c.bitset[lo>>6]&(uint64(1)<<(lo&63)) != 0
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	return i < len(c.array) && c.array[i] == lo
}

func (c *container) count() int {
	if c.bitset != nil {
		n := 0
		for _, w := range c.bitset {
			n += bits.OnesCount64(w)
		}
		return n
	}
	return len(c.array)
}

func (c *container) toBitset() {
	bs := make([]uint64, containerSpan/64)
	for _, lo := range c.array {
		bs[lo>>6] |= uint64(1) << (lo & 63)
	}
	c.bitset = bs
	c.array = nil
}

func (c *container) each(hi uint64, fn func(uint64) bool) bool {
	if c.bitset != nil {
		for w, word := range c.bitset {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				if !fn(hi<<containerBits | uint64(w<<6+b)) {
					return false
				}
				word &= word - 1
			}
		}
		return true
	}
	for _, lo := range c.array {
		if !fn(hi<<containerBits | uint64(lo)) {
			return false
		}
	}
	return true
}

// Bitmap is a compressed set of uint64 row positions.
type Bitmap struct {
	his  []uint64 // sorted container keys
	cons []*container
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

func (b *Bitmap) find(hi uint64) (int, bool) {
	i := sort.Search(len(b.his), func(i int) bool { return b.his[i] >= hi })
	return i, i < len(b.his) && b.his[i] == hi
}

// Add inserts pos; it reports whether pos was newly added.
func (b *Bitmap) Add(pos uint64) bool {
	hi, lo := pos>>containerBits, uint16(pos&(containerSpan-1))
	i, ok := b.find(hi)
	if !ok {
		b.his = append(b.his, 0)
		copy(b.his[i+1:], b.his[i:])
		b.his[i] = hi
		b.cons = append(b.cons, nil)
		copy(b.cons[i+1:], b.cons[i:])
		b.cons[i] = &container{}
	}
	return b.cons[i].add(lo)
}

// Remove deletes pos; it reports whether pos was present.
func (b *Bitmap) Remove(pos uint64) bool {
	hi, lo := pos>>containerBits, uint16(pos&(containerSpan-1))
	i, ok := b.find(hi)
	if !ok {
		return false
	}
	removed := b.cons[i].remove(lo)
	if removed && b.cons[i].count() == 0 {
		b.his = append(b.his[:i], b.his[i+1:]...)
		b.cons = append(b.cons[:i], b.cons[i+1:]...)
	}
	return removed
}

// Contains reports whether pos is in the set.
func (b *Bitmap) Contains(pos uint64) bool {
	hi, lo := pos>>containerBits, uint16(pos&(containerSpan-1))
	i, ok := b.find(hi)
	return ok && b.cons[i].contains(lo)
}

// Count returns the cardinality of the set.
func (b *Bitmap) Count() int {
	n := 0
	for _, c := range b.cons {
		n += c.count()
	}
	return n
}

// Each calls fn for every position in ascending order until fn returns
// false.
func (b *Bitmap) Each(fn func(pos uint64) bool) {
	for i, c := range b.cons {
		if !c.each(b.his[i], fn) {
			return
		}
	}
}

// Slice returns the set as a sorted slice (tests and small results).
func (b *Bitmap) Slice() []uint64 {
	out := make([]uint64, 0, b.Count())
	b.Each(func(p uint64) bool { out = append(out, p); return true })
	return out
}

// And returns the intersection of two bitmaps.
func And(a, b *Bitmap) *Bitmap {
	out := New()
	small, big := a, b
	if small.Count() > big.Count() {
		small, big = big, small
	}
	small.Each(func(p uint64) bool {
		if big.Contains(p) {
			out.Add(p)
		}
		return true
	})
	return out
}

// Or returns the union of two bitmaps.
func Or(a, b *Bitmap) *Bitmap {
	out := New()
	a.Each(func(p uint64) bool { out.Add(p); return true })
	b.Each(func(p uint64) bool { out.Add(p); return true })
	return out
}

// AndNot returns a \ b.
func AndNot(a, b *Bitmap) *Bitmap {
	out := New()
	a.Each(func(p uint64) bool {
		if !b.Contains(p) {
			out.Add(p)
		}
		return true
	})
	return out
}

// Index is a bitmap index: one bitmap per distinct column value. It lives
// in memory only and is rebuilt from the base table on open.
type Index struct {
	maps map[string]*Bitmap // key: order-preserving encoded column value
}

// NewIndex returns an empty bitmap index.
func NewIndex() *Index { return &Index{maps: make(map[string]*Bitmap)} }

// Insert records that the row at pos has the given (encoded) value.
func (x *Index) Insert(valueKey []byte, pos uint64) {
	bm, ok := x.maps[string(valueKey)]
	if !ok {
		bm = New()
		x.maps[string(valueKey)] = bm
	}
	bm.Add(pos)
}

// Delete removes the row at pos from the value's bitmap.
func (x *Index) Delete(valueKey []byte, pos uint64) {
	if bm, ok := x.maps[string(valueKey)]; ok {
		bm.Remove(pos)
		if bm.Count() == 0 {
			delete(x.maps, string(valueKey))
		}
	}
}

// Lookup returns the bitmap for the value (nil when absent).
func (x *Index) Lookup(valueKey []byte) *Bitmap {
	return x.maps[string(valueKey)]
}

// Cardinality returns the number of distinct values.
func (x *Index) Cardinality() int { return len(x.maps) }
