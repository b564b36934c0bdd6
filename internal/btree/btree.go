// Package btree implements a page-backed B+-tree with variable-length
// byte-string keys and values, ordered iteration, and leaf-chained range
// scans. It is the engine's built-in ordered index (the paper's B-tree
// baseline) and also the storage structure underneath index-organized
// tables, which the paper reports as the most common store for domain
// index data.
//
// Keys must be unique; index layers that need duplicates append a row
// identifier suffix to the key (see internal/iot and the secondary-index
// code in the catalog). Deletion is logical at the node level: entries are
// removed immediately, but a node that becomes empty stays linked and is
// skipped by scans and reused by later inserts — the same page-level
// strategy PostgreSQL uses between vacuums. The randomized model test
// exercises interleaved insert/delete/scan workloads against a reference
// implementation.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

const (
	kindLeaf     = 0
	kindInternal = 1

	// nodeHeader: kind(1) + next/leftmost child(4) + nkeys(2)
	nodeHeaderSize = 7

	// splitAt is the serialized size that triggers a node split. Leaving
	// headroom below the page size keeps post-split inserts from
	// immediately splitting again.
	splitAt = storage.PageSize - 512
)

// MaxEntrySize bounds key+value size so that any two entries fit in a
// node, which the split algorithm requires.
const MaxEntrySize = (splitAt - nodeHeaderSize) / 2

// node is the in-memory image of one tree page.
type node struct {
	id   storage.PageID
	kind byte
	// next is the right-sibling leaf for leaves and the leftmost child for
	// internal nodes.
	next     storage.PageID
	keys     [][]byte
	vals     [][]byte         // leaves only
	children []storage.PageID // internal only; children[i] covers keys >= keys[i]
}

func (n *node) size() int {
	sz := nodeHeaderSize
	for i, k := range n.keys {
		sz += binary.MaxVarintLen32 + len(k)
		if n.kind == kindLeaf {
			sz += binary.MaxVarintLen32 + len(n.vals[i])
		} else {
			sz += 4
		}
	}
	return sz
}

func (n *node) serialize(d []byte) {
	d[0] = n.kind
	binary.BigEndian.PutUint32(d[1:5], uint32(n.next))
	binary.BigEndian.PutUint16(d[5:7], uint16(len(n.keys)))
	off := nodeHeaderSize
	for i, k := range n.keys {
		off += binary.PutUvarint(d[off:], uint64(len(k)))
		off += copy(d[off:], k)
		if n.kind == kindLeaf {
			off += binary.PutUvarint(d[off:], uint64(len(n.vals[i])))
			off += copy(d[off:], n.vals[i])
		} else {
			binary.BigEndian.PutUint32(d[off:off+4], uint32(n.children[i]))
			off += 4
		}
	}
}

func parseNode(id storage.PageID, d []byte) (*node, error) {
	n := &node{
		id:   id,
		kind: d[0],
		next: storage.PageID(binary.BigEndian.Uint32(d[1:5])),
	}
	cnt := int(binary.BigEndian.Uint16(d[5:7]))
	off := nodeHeaderSize
	for i := 0; i < cnt; i++ {
		kl, sz := binary.Uvarint(d[off:])
		if sz <= 0 {
			return nil, fmt.Errorf("btree: corrupt node %d", id)
		}
		off += sz
		key := append([]byte(nil), d[off:off+int(kl)]...)
		off += int(kl)
		n.keys = append(n.keys, key)
		if n.kind == kindLeaf {
			vl, sz := binary.Uvarint(d[off:])
			if sz <= 0 {
				return nil, fmt.Errorf("btree: corrupt node %d", id)
			}
			off += sz
			val := append([]byte(nil), d[off:off+int(vl)]...)
			off += int(vl)
			n.vals = append(n.vals, val)
		} else {
			n.children = append(n.children, storage.PageID(binary.BigEndian.Uint32(d[off:off+4])))
			off += 4
		}
	}
	return n, nil
}

// BTree is a page-backed B+-tree. It is not safe for concurrent use; the
// engine's lock manager serializes access above it.
type BTree struct {
	pager *storage.Pager
	meta  storage.PageID // page holding the root pointer
	root  storage.PageID
}

// Create allocates an empty tree and returns it. The value of MetaPage
// must be persisted (the catalog does) to reopen the tree later.
func Create(p *storage.Pager) (*BTree, error) {
	rootPg, err := p.NewPage()
	if err != nil {
		return nil, err
	}
	leaf := &node{id: rootPg.ID, kind: kindLeaf, next: storage.InvalidPage}
	leaf.serialize(rootPg.Data)
	p.Unpin(rootPg, true)

	metaPg, err := p.NewPage()
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(metaPg.Data[0:4], uint32(rootPg.ID))
	p.Unpin(metaPg, true)
	return &BTree{pager: p, meta: metaPg.ID, root: rootPg.ID}, nil
}

// Open reattaches to a tree created earlier, given its meta page.
func Open(p *storage.Pager, meta storage.PageID) (*BTree, error) {
	pg, err := p.Fetch(meta)
	if err != nil {
		return nil, err
	}
	root := storage.PageID(binary.BigEndian.Uint32(pg.Data[0:4]))
	p.Unpin(pg, false)
	return &BTree{pager: p, meta: meta, root: root}, nil
}

// MetaPage returns the page id identifying this tree for Open.
func (t *BTree) MetaPage() storage.PageID { return t.meta }

func (t *BTree) load(id storage.PageID) (*node, error) {
	pg, err := t.pager.Fetch(id)
	if err != nil {
		return nil, err
	}
	n, err := parseNode(id, pg.Data)
	t.pager.Unpin(pg, false)
	return n, err
}

func (t *BTree) store(n *node) error {
	pg, err := t.pager.Fetch(n.id)
	if err != nil {
		return err
	}
	t.pager.WillWrite(pg)
	for i := range pg.Data {
		pg.Data[i] = 0
	}
	n.serialize(pg.Data)
	t.pager.Unpin(pg, true)
	return nil
}

func (t *BTree) setRoot(id storage.PageID) error {
	t.root = id
	pg, err := t.pager.Fetch(t.meta)
	if err != nil {
		return err
	}
	t.pager.WillWrite(pg)
	binary.BigEndian.PutUint32(pg.Data[0:4], uint32(id))
	t.pager.Unpin(pg, true)
	return nil
}

// childIndex returns the index into (leftmost, children...) for key:
// 0 means descend into n.next (the leftmost child); i>0 means
// n.children[i-1].
func (n *node) childIndex(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *node) childAt(i int) storage.PageID {
	if i == 0 {
		return n.next
	}
	return n.children[i-1]
}

// leafIndex returns the position of the first key >= key in a leaf.
func (n *node) leafIndex(key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && bytes.Equal(n.keys[lo], key)
}

// Get returns the value stored under key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	n, err := t.load(t.root)
	if err != nil {
		return nil, false, err
	}
	for n.kind == kindInternal {
		n, err = t.load(n.childAt(n.childIndex(key)))
		if err != nil {
			return nil, false, err
		}
	}
	i, found := n.leafIndex(key)
	if !found {
		return nil, false, nil
	}
	return n.vals[i], true, nil
}

// Set inserts or replaces the value stored under key.
func (t *BTree) Set(key, val []byte) error {
	if len(key)+len(val) > MaxEntrySize {
		return fmt.Errorf("btree: entry of %d bytes exceeds max %d", len(key)+len(val), MaxEntrySize)
	}
	sepKey, sepChild, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if sepChild != storage.InvalidPage {
		// Root split: grow the tree by one level.
		pg, err := t.pager.NewPage()
		if err != nil {
			return err
		}
		newRoot := &node{
			id:       pg.ID,
			kind:     kindInternal,
			next:     t.root,
			keys:     [][]byte{sepKey},
			children: []storage.PageID{sepChild},
		}
		newRoot.serialize(pg.Data)
		t.pager.Unpin(pg, true)
		if err := t.setRoot(newRoot.id); err != nil {
			return err
		}
	}
	if invariantsEnabled {
		t.mustValid("Set")
	}
	return nil
}

// insert descends to the leaf, inserts, and propagates splits upward.
// A non-Invalid sepChild return means the caller must add (sepKey,
// sepChild) to its own node.
func (t *BTree) insert(id storage.PageID, key, val []byte) ([]byte, storage.PageID, error) {
	n, err := t.load(id)
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	if n.kind == kindLeaf {
		i, found := n.leafIndex(key)
		if found {
			n.vals[i] = append([]byte(nil), val...)
		} else {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = append([]byte(nil), key...)
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = append([]byte(nil), val...)
		}
		return t.storeMaybeSplit(n)
	}
	ci := n.childIndex(key)
	sepKey, sepChild, err := t.insert(n.childAt(ci), key, val)
	if err != nil || sepChild == storage.InvalidPage {
		return nil, storage.InvalidPage, err
	}
	// Insert the new separator after position ci-1 (i.e. at ci in the
	// conceptual (leftmost, children...) array, which is index ci in keys).
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sepKey
	n.children = append(n.children, 0)
	copy(n.children[ci+1:], n.children[ci:])
	n.children[ci] = sepChild
	return t.storeMaybeSplit(n)
}

func (t *BTree) storeMaybeSplit(n *node) ([]byte, storage.PageID, error) {
	if n.size() <= splitAt {
		return nil, storage.InvalidPage, t.store(n)
	}
	// Split at the midpoint by serialized size.
	half := n.size() / 2
	acc := nodeHeaderSize
	mid := 0
	for i := range n.keys {
		acc += binary.MaxVarintLen32 + len(n.keys[i])
		if n.kind == kindLeaf {
			acc += binary.MaxVarintLen32 + len(n.vals[i])
		} else {
			acc += 4
		}
		if acc > half {
			mid = i
			break
		}
	}
	if mid == 0 {
		mid = 1
	}
	if mid >= len(n.keys) {
		mid = len(n.keys) - 1
	}
	pg, err := t.pager.NewPage()
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	right := &node{id: pg.ID, kind: n.kind}
	var sepKey []byte
	if n.kind == kindLeaf {
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		right.next = n.next
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = right.id
		sepKey = append([]byte(nil), right.keys[0]...)
	} else {
		// The separator key at mid moves up; its child becomes the right
		// node's leftmost child.
		sepKey = append([]byte(nil), n.keys[mid]...)
		right.next = n.children[mid]
		right.keys = append(right.keys, n.keys[mid+1:]...)
		right.children = append(right.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid]
	}
	right.serialize(pg.Data)
	t.pager.Unpin(pg, true)
	if err := t.store(n); err != nil {
		return nil, storage.InvalidPage, err
	}
	return sepKey, right.id, nil
}

// Delete removes key from the tree; it reports whether the key existed.
func (t *BTree) Delete(key []byte) (bool, error) {
	n, err := t.load(t.root)
	if err != nil {
		return false, err
	}
	for n.kind == kindInternal {
		n, err = t.load(n.childAt(n.childIndex(key)))
		if err != nil {
			return false, err
		}
	}
	i, found := n.leafIndex(key)
	if !found {
		return false, nil
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	if err := t.store(n); err != nil {
		return false, err
	}
	if invariantsEnabled {
		t.mustValid("Delete")
	}
	return true, nil
}

// Iterator walks leaf entries in ascending key order.
type Iterator struct {
	tree *BTree
	leaf *node
	idx  int
	err  error
}

// Seek positions an iterator at the first entry with key >= start
// (or the first entry overall when start is nil).
func (t *BTree) Seek(start []byte) *Iterator {
	it := &Iterator{tree: t}
	n, err := t.load(t.root)
	if err != nil {
		it.err = err
		return it
	}
	for n.kind == kindInternal {
		ci := 0
		if start != nil {
			ci = n.childIndex(start)
		}
		n, err = t.load(n.childAt(ci))
		if err != nil {
			it.err = err
			return it
		}
	}
	it.leaf = n
	if start != nil {
		it.idx, _ = n.leafIndex(start)
	}
	it.skipEmpty()
	return it
}

func (it *Iterator) skipEmpty() {
	for it.leaf != nil && it.idx >= len(it.leaf.keys) {
		if it.leaf.next == storage.InvalidPage {
			it.leaf = nil
			return
		}
		n, err := it.tree.load(it.leaf.next)
		if err != nil {
			it.err = err
			it.leaf = nil
			return
		}
		it.leaf = n
		it.idx = 0
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.leaf != nil && it.err == nil }

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key. Valid must be true.
func (it *Iterator) Key() []byte { return it.leaf.keys[it.idx] }

// Value returns the current value. Valid must be true.
func (it *Iterator) Value() []byte { return it.leaf.vals[it.idx] }

// Next advances to the following entry.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.idx++
	it.skipEmpty()
}

// Drop releases every page of the tree (nodes and meta) back to the
// pager. The tree must not be used afterwards.
func (t *BTree) Drop() error {
	if err := t.dropNode(t.root); err != nil {
		return err
	}
	t.pager.Free(t.meta)
	t.root = storage.InvalidPage
	return nil
}

func (t *BTree) dropNode(id storage.PageID) error {
	n, err := t.load(id)
	if err != nil {
		return err
	}
	if n.kind == kindInternal {
		if err := t.dropNode(n.next); err != nil {
			return err
		}
		for _, c := range n.children {
			if err := t.dropNode(c); err != nil {
				return err
			}
		}
	}
	t.pager.Free(id)
	return nil
}

// Count returns the number of entries in the tree (full scan; used by
// statistics collection and tests).
func (t *BTree) Count() (int, error) {
	n := 0
	it := t.Seek(nil)
	for ; it.Valid(); it.Next() {
		n++
	}
	return n, it.Err()
}

// Height returns the tree height (leaf = 1); the optimizer's cost model
// uses it to estimate index descent cost.
func (t *BTree) Height() (int, error) {
	h := 1
	n, err := t.load(t.root)
	if err != nil {
		return 0, err
	}
	for n.kind == kindInternal {
		h++
		n, err = t.load(n.childAt(0))
		if err != nil {
			return 0, err
		}
	}
	return h, nil
}
