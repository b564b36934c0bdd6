//go:build invariants

package storage

import "testing"

// TestCloseWithPinnedPagePanics proves the invariants build turns a pin
// leak into a loud failure at Close instead of a silently wired frame.
func TestCloseWithPinnedPagePanics(t *testing.T) {
	p := NewPager(NewMemBackend(), 8)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Close with a pinned page did not panic under -tags invariants")
			}
		}()
		p.Close()
	}()
	// Release the pin and close for real.
	p.Unpin(pg, false)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyUnpinWithoutBasePanics proves a write path that forgets its
// WillWrite call fails loudly under -tags invariants instead of silently
// logging full pages: once a frame has been imaged, modifying it with no
// base captured is a bug.
func TestDirtyUnpinWithoutBasePanics(t *testing.T) {
	p, _, ids := sweepRig(t, 1) // one committed, imaged page
	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[0] ^= 0xFF // no WillWrite
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dirty Unpin of an imaged frame with no base did not panic under -tags invariants")
			}
		}()
		p.Unpin(pg, true)
	}()
	// The panic fired before the pin was released; with the hook the same
	// write is legal.
	p.WillWrite(pg)
	p.Unpin(pg, true)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
