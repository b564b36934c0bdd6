package btree

import (
	"bytes"
	"fmt"

	"repro/internal/storage"
)

// Validate walks the whole tree and checks its structural invariants:
//
//   - keys within every node are strictly increasing;
//   - every key lies inside the (lo, hi) bound implied by its ancestors'
//     separators (children[i] of an internal node covers keys >= keys[i],
//     the leftmost child covers keys < keys[0]);
//   - internal nodes carry at least one separator and one child per key;
//   - every leaf sits at the same depth;
//   - every node's serialized size fits in a page.
//
// Empty leaves are legal: deletion is logical and an emptied node stays
// linked for reuse (see the package comment). Tree structure is beyond
// any static check, so the `invariants` build tag runs Validate after
// every mutation.
func (t *BTree) Validate() error {
	leafDepth := -1
	var walk func(id storage.PageID, depth int, lo, hi []byte) error
	walk = func(id storage.PageID, depth int, lo, hi []byte) error {
		n, err := t.load(id)
		if err != nil {
			return err
		}
		if sz := n.size(); sz > storage.PageSize {
			return fmt.Errorf("btree: node %d serialized size %d exceeds page size", id, sz)
		}
		for i, k := range n.keys {
			if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
				return fmt.Errorf("btree: node %d keys out of order at index %d", id, i)
			}
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("btree: node %d key %d below its subtree bound", id, i)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("btree: node %d key %d at or above its subtree bound", id, i)
			}
		}
		if n.kind == kindLeaf {
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("btree: leaf %d has %d keys but %d values", id, len(n.keys), len(n.vals))
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("btree: leaf %d at depth %d, expected %d", id, depth, leafDepth)
			}
			return nil
		}
		if len(n.keys) == 0 {
			return fmt.Errorf("btree: internal node %d has no separator keys", id)
		}
		if len(n.children) != len(n.keys) {
			return fmt.Errorf("btree: internal node %d has %d keys but %d children", id, len(n.keys), len(n.children))
		}
		// Leftmost child (n.next) covers keys < keys[0]; children[i]
		// covers [keys[i], keys[i+1]).
		if err := walk(n.next, depth+1, lo, n.keys[0]); err != nil {
			return err
		}
		for i, c := range n.children {
			childHi := hi
			if i+1 < len(n.keys) {
				childHi = n.keys[i+1]
			}
			if err := walk(c, depth+1, n.keys[i], childHi); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0, nil, nil)
}

// mustValid panics on a violated tree invariant; it is called after
// mutations behind invariantsEnabled, where a malformed tree means the
// mutation itself corrupted the structure.
func (t *BTree) mustValid(op string) {
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("btree: invariant violated after %s: %v", op, err))
	}
}
