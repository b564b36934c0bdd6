package storage

import (
	"fmt"
	"sort"
)

// Runtime structural invariants. validatePage is always compiled (tests
// call it directly); the mutation hooks in page.go and the Close-time
// pin-leak check in pager.go run it only when the `invariants` build tag
// sets invariantsEnabled. They see what a static check cannot, page
// structure and the pins actually leaked on the paths tests take; the
// vetx pinbalance analyzer checks pin pairing on every path, those no
// test takes included.

// validatePage checks the slotted-page structural invariants:
//
//   - the slot array and dataStart do not overlap and stay in bounds;
//   - every live slot lies entirely within [dataStart, PageSize);
//   - an empty slot is fully zeroed (offset 0 cannot hold data);
//   - no two live slots overlap.
func validatePage(d []byte) error {
	if len(d) != PageSize {
		return fmt.Errorf("page buffer is %d bytes, want %d", len(d), PageSize)
	}
	n := pageNSlots(d)
	slotEnd := pageHeaderSize + n*slotSize
	ds := pageDataStart(d)
	if slotEnd > ds {
		return fmt.Errorf("slot array (%d slots, ends at %d) overlaps data start %d", n, slotEnd, ds)
	}
	if ds > PageSize {
		return fmt.Errorf("data start %d beyond page size %d", ds, PageSize)
	}
	type span struct{ slot, off, end int }
	var live []span
	for s := 0; s < n; s++ {
		off, l := slotOffLen(d, s)
		if l == 0 {
			if off != 0 {
				return fmt.Errorf("empty slot %d has non-zero offset %d", s, off)
			}
			continue
		}
		if off < ds || off+l > PageSize {
			return fmt.Errorf("slot %d data [%d,%d) outside data region [%d,%d)", s, off, off+l, ds, PageSize)
		}
		live = append(live, span{s, off, off + l})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })
	for i := 1; i < len(live); i++ {
		if live[i].off < live[i-1].end {
			return fmt.Errorf("slot %d data [%d,%d) overlaps slot %d data ending at %d",
				live[i].slot, live[i].off, live[i].end, live[i-1].slot, live[i-1].end)
		}
	}
	return nil
}

// mustValidPage panics on a violated page invariant; it is called from
// mutation paths behind invariantsEnabled, where a bad page means the
// mutation itself corrupted the layout.
func mustValidPage(d []byte, op string) {
	if err := validatePage(d); err != nil {
		panic(fmt.Sprintf("storage: page invariant violated after %s: %v", op, err))
	}
}
