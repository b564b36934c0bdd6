package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// RID identifies a row in a heap: the page it lives on and its slot. RIDs
// are stable across in-place updates; updates that no longer fit leave a
// forwarding stub behind so the original RID keeps working — this is what
// lets domain indexes store RIDs durably, exactly as the paper's index
// maintenance protocol assumes.
type RID struct {
	Page PageID
	Slot uint16
}

// Nil is the zero RID used as "no row" (page InvalidPage).
var NilRID = RID{Page: InvalidPage}

// IsNil reports whether the RID is the sentinel "no row" value.
func (r RID) IsNil() bool { return r.Page == InvalidPage }

// Int64 packs the RID into an int64 for transport inside Values.
func (r RID) Int64() int64 { return int64(r.Page)<<16 | int64(r.Slot) }

// RIDFromInt64 unpacks a RID packed by Int64.
func RIDFromInt64(v int64) RID {
	return RID{Page: PageID(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// String renders the RID like Oracle's ROWID pseudo-column.
func (r RID) String() string { return fmt.Sprintf("RID(%d.%d)", r.Page, r.Slot) }

// Record flags: a record in a heap page is a flag byte followed by payload.
const (
	recData      = 0 // payload is the row image
	recForward   = 1 // payload is the 6-byte RID of the relocated row
	recRelocated = 2 // payload is the row image, but the canonical RID is elsewhere
)

// Heap is a slotted-page heap table. It is not itself synchronized; the
// lock manager serializes access at the table level above it.
type Heap struct {
	pager *Pager
	first PageID
	pages []PageID
	// freeBytes approximates per-page free space to direct inserts. Its
	// keys are exactly the heap's pages (see owns).
	freeBytes map[PageID]int
}

// owns reports whether page id is one of the heap's pages. A RID on any
// other page (another table's, an index's, the dictionary's) names no
// row here: reading it as a heap slot would return another table's row
// or run off the page's slot directory.
func (h *Heap) owns(id PageID) bool {
	_, ok := h.freeBytes[id]
	return ok
}

// CreateHeap allocates an empty heap.
func CreateHeap(p *Pager) (*Heap, error) {
	pg, err := p.NewPage()
	if err != nil {
		return nil, err
	}
	initPage(pg.Data)
	p.Unpin(pg, true)
	h := &Heap{pager: p, first: pg.ID, pages: []PageID{pg.ID}, freeBytes: map[PageID]int{}}
	h.freeBytes[pg.ID] = PageSize - pageHeaderSize
	return h, nil
}

// OpenHeap reattaches to a heap previously created with CreateHeap, by
// walking its page chain from the first page.
func OpenHeap(p *Pager, first PageID) (*Heap, error) {
	h := &Heap{pager: p, first: first, freeBytes: map[PageID]int{}}
	for id := first; id != InvalidPage; {
		pg, err := p.Fetch(id)
		if err != nil {
			return nil, err
		}
		h.pages = append(h.pages, id)
		free, _ := pageFreeSpace(pg.Data)
		h.freeBytes[id] = free
		next := pageNext(pg.Data)
		p.Unpin(pg, false)
		id = next
	}
	return h, nil
}

// FirstPage returns the head of the heap's page chain (persisted in the
// catalog so the heap can be reopened).
func (h *Heap) FirstPage() PageID { return h.first }

// NumPages returns the number of pages the heap occupies.
func (h *Heap) NumPages() int { return len(h.pages) }

// Drop releases every page of the heap back to the pager.
func (h *Heap) Drop() {
	for _, id := range h.pages {
		h.pager.Free(id)
	}
	h.pages = nil
	h.freeBytes = map[PageID]int{}
	h.first = InvalidPage
}

// Truncate drops all pages except a fresh first page.
func (h *Heap) Truncate() error {
	for _, id := range h.pages {
		h.pager.Free(id)
	}
	pg, err := h.pager.NewPage()
	if err != nil {
		return err
	}
	initPage(pg.Data)
	h.pager.Unpin(pg, true)
	h.first = pg.ID
	h.pages = []PageID{pg.ID}
	h.freeBytes = map[PageID]int{pg.ID: PageSize - pageHeaderSize}
	return nil
}

// Insert stores a row image and returns its RID.
func (h *Heap) Insert(row []byte) (RID, error) {
	rec := make([]byte, 1+len(row))
	rec[0] = recData
	copy(rec[1:], row)
	return h.insertRecord(rec)
}

func (h *Heap) insertRecord(rec []byte) (RID, error) {
	// Try the most recently appended pages first, then any page with room.
	for i := len(h.pages) - 1; i >= 0 && i >= len(h.pages)-2; i-- {
		if rid, ok, err := h.tryInsertOn(h.pages[i], rec); err != nil || ok {
			return rid, err
		}
	}
	for _, id := range h.pages {
		if h.freeBytes[id] >= len(rec)+slotSize {
			if rid, ok, err := h.tryInsertOn(id, rec); err != nil || ok {
				return rid, err
			}
		}
	}
	// Grow the heap.
	pg, err := h.pager.NewPage()
	if err != nil {
		return NilRID, err
	}
	initPage(pg.Data)
	slot, err := pageInsert(pg.Data, rec)
	if err != nil {
		h.pager.Unpin(pg, false)
		return NilRID, err
	}
	free, _ := pageFreeSpace(pg.Data)
	h.freeBytes[pg.ID] = free
	h.pager.Unpin(pg, true)
	// Link at the end of the chain.
	last := h.pages[len(h.pages)-1]
	lp, err := h.pager.Fetch(last)
	if err != nil {
		return NilRID, err
	}
	h.pager.WillWrite(lp)
	setPageNext(lp.Data, pg.ID)
	h.pager.Unpin(lp, true)
	h.pages = append(h.pages, pg.ID)
	return RID{Page: pg.ID, Slot: uint16(slot)}, nil
}

func (h *Heap) tryInsertOn(id PageID, rec []byte) (RID, bool, error) {
	pg, err := h.pager.Fetch(id)
	if err != nil {
		return NilRID, false, err
	}
	h.pager.WillWrite(pg)
	slot, err := pageInsert(pg.Data, rec)
	if err == errPageFull {
		free, _ := pageFreeSpace(pg.Data)
		h.freeBytes[id] = free
		h.pager.Unpin(pg, false)
		return NilRID, false, nil
	}
	if err != nil {
		h.pager.Unpin(pg, false)
		return NilRID, false, err
	}
	free, _ := pageFreeSpace(pg.Data)
	h.freeBytes[id] = free
	h.pager.Unpin(pg, true)
	return RID{Page: id, Slot: uint16(slot)}, true, nil
}

// InsertAt restores a row image at a specific RID whose slot must be
// currently empty. The transaction layer uses it to undo deletes while
// preserving RIDs; reverse-order undo guarantees the slot and the space
// are free again by the time it runs.
func (h *Heap) InsertAt(rid RID, row []byte) error {
	rec := make([]byte, 1+len(row))
	rec[0] = recData
	copy(rec[1:], row)
	pg, err := h.pager.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h.pager.WillWrite(pg)
	defer func() {
		free, _ := pageFreeSpace(pg.Data)
		h.freeBytes[rid.Page] = free
		h.pager.Unpin(pg, true)
	}()
	if int(rid.Slot) >= pageNSlots(pg.Data) {
		return fmt.Errorf("storage: InsertAt slot %d beyond page slot count", rid.Slot)
	}
	if off, l := slotOffLen(pg.Data, int(rid.Slot)); off != 0 || l != 0 {
		return fmt.Errorf("storage: InsertAt target %s is occupied", rid)
	}
	slotEnd := pageHeaderSize + pageNSlots(pg.Data)*slotSize
	if PageSize-slotEnd-pageLiveBytes(pg.Data) < len(rec) {
		return fmt.Errorf("storage: no room to restore row at %s", rid)
	}
	pageCompact(pg.Data)
	pos := pageDataStart(pg.Data) - len(rec)
	copy(pg.Data[pos:pos+len(rec)], rec)
	setPageDataStart(pg.Data, pos)
	setSlot(pg.Data, int(rid.Slot), pos, len(rec))
	return nil
}

// resolve follows at most one forwarding hop and calls fn with the RID
// holding the actual row image and a view of that image's payload. The
// view aliases the pinned page: it is valid until fn returns. A relocated
// copy is not a row at its own RID (its row is named by the stub), so a
// stale RID whose slot now holds one resolves to no row.
func (h *Heap) resolve(rid RID, fn func(home RID, img []byte) error) error {
	if !h.owns(rid.Page) {
		return fmt.Errorf("storage: no row at %s", rid)
	}
	pg, err := h.pager.Fetch(rid.Page)
	if err != nil {
		return err
	}
	rec, err := pageRead(pg.Data, int(rid.Slot))
	if err == nil && (rec == nil || rec[0] == recRelocated) {
		err = fmt.Errorf("storage: no row at %s", rid)
	}
	if err != nil {
		h.pager.Unpin(pg, false)
		return err
	}
	if rec[0] == recForward {
		target := forwardTarget(rec)
		h.pager.Unpin(pg, false)
		return h.visitRelocated(rid, target, fn)
	}
	err = fn(rid, rec[1:])
	h.pager.Unpin(pg, false)
	return err
}

// forwardTarget decodes the relocation RID a forwarding stub points at.
func forwardTarget(stub []byte) RID {
	return RID{
		Page: PageID(binary.BigEndian.Uint32(stub[1:5])),
		Slot: binary.BigEndian.Uint16(stub[5:7]),
	}
}

// visitRelocated calls fn with the relocated image the forwarding stub
// at rid points to (target), pinning target's page for the call.
func (h *Heap) visitRelocated(rid, target RID, fn func(home RID, img []byte) error) error {
	tp, err := h.pager.Fetch(target.Page)
	if err != nil {
		return err
	}
	trec, err := pageRead(tp.Data, int(target.Slot))
	if err == nil && (trec == nil || trec[0] != recRelocated) {
		err = fmt.Errorf("storage: dangling forward at %s", rid)
	}
	if err == nil {
		err = fn(target, trec[1:])
	}
	h.pager.Unpin(tp, false)
	return err
}

// home returns the RID holding rid's row image: rid itself, or the
// relocation target of its forwarding stub.
func (h *Heap) home(rid RID) (home RID, err error) {
	err = h.resolve(rid, func(at RID, _ []byte) error { home = at; return nil })
	return home, err
}

// Get returns a copy of the row image at rid.
func (h *Heap) Get(rid RID) (row []byte, err error) {
	err = h.resolve(rid, func(_ RID, img []byte) error {
		row = append([]byte(nil), img...)
		return nil
	})
	return row, err
}

// GetBatchFunc reads the row images for a batch of RIDs, calling fn once
// per input with i the index into rids. The batch is visited in
// (page, slot) order through an index permutation, so each page is
// pinned once per run of RIDs on it instead of once per row; fn is
// therefore invoked in page order, not input order — callers restore
// input order by writing into slot i. The image passed to fn is only
// valid for the duration of the call (it aliases a pinned page). perm
// is caller-owned scratch for the permutation: when its capacity covers
// the batch, the read allocates nothing.
func (h *Heap) GetBatchFunc(rids []RID, perm []int, fn func(i int, img []byte) error) error {
	if len(rids) == 0 {
		return nil
	}
	if cap(perm) < len(rids) {
		perm = make([]int, len(rids))
	}
	perm = perm[:len(rids)]
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		ra, rb := rids[a], rids[b]
		if c := cmp.Compare(ra.Page, rb.Page); c != 0 {
			return c
		}
		return cmp.Compare(ra.Slot, rb.Slot)
	})
	for k := 0; k < len(perm); {
		page := rids[perm[k]].Page
		if !h.owns(page) {
			return fmt.Errorf("storage: no row at %s", rids[perm[k]])
		}
		pg, err := h.pager.Fetch(page)
		if err != nil {
			return err
		}
		for ; k < len(perm) && rids[perm[k]].Page == page; k++ {
			i := perm[k]
			rid := rids[i]
			rec, err := pageRead(pg.Data, int(rid.Slot))
			switch {
			case err != nil:
			case rec == nil || rec[0] == recRelocated:
				err = fmt.Errorf("storage: no row at %s", rid)
			case rec[0] == recForward:
				err = h.visitRelocated(rid, forwardTarget(rec), func(_ RID, img []byte) error { return fn(i, img) })
			default:
				err = fn(i, rec[1:])
			}
			if err != nil {
				h.pager.Unpin(pg, false)
				return err
			}
		}
		h.pager.Unpin(pg, false)
	}
	return nil
}

// GetBatch returns copies of the row images for rids, in input order,
// using the page-sorted batched read.
func (h *Heap) GetBatch(rids []RID) ([][]byte, error) {
	out := make([][]byte, len(rids))
	err := h.GetBatchFunc(rids, nil, func(i int, img []byte) error {
		out[i] = append([]byte(nil), img...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete removes the row at rid (following forwarding).
func (h *Heap) Delete(rid RID) error {
	home, err := h.home(rid)
	if err != nil {
		return err
	}
	if home != rid {
		// Clear the relocated copy first.
		if err := h.clearSlot(home); err != nil {
			return err
		}
	}
	return h.clearSlot(rid)
}

func (h *Heap) clearSlot(rid RID) error {
	pg, err := h.pager.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h.pager.WillWrite(pg)
	err = pageDelete(pg.Data, int(rid.Slot))
	if err == nil {
		free, _ := pageFreeSpace(pg.Data)
		h.freeBytes[rid.Page] = free
	}
	h.pager.Unpin(pg, err == nil)
	return err
}

// Update replaces the row image at rid, preserving the RID. If the new
// image does not fit where the row lives, the row is relocated and a
// forwarding stub is left at the original RID.
func (h *Heap) Update(rid RID, row []byte) error {
	home, err := h.home(rid)
	if err != nil {
		return err
	}
	rec := make([]byte, 1+len(row))
	if home == rid {
		rec[0] = recData
	} else {
		rec[0] = recRelocated
	}
	copy(rec[1:], row)
	pg, err := h.pager.Fetch(home.Page)
	if err != nil {
		return err
	}
	h.pager.WillWrite(pg)
	ok, err := pageReplace(pg.Data, int(home.Slot), rec)
	if err != nil {
		h.pager.Unpin(pg, false)
		return err
	}
	if ok {
		free, _ := pageFreeSpace(pg.Data)
		h.freeBytes[home.Page] = free
		h.pager.Unpin(pg, true)
		return nil
	}
	h.pager.Unpin(pg, false)
	// Relocate: store the image elsewhere flagged recRelocated, then point
	// the original slot at it.
	rec[0] = recRelocated
	target, err := h.insertRecord(rec)
	if err != nil {
		return err
	}
	var fwd [7]byte
	fwd[0] = recForward
	binary.BigEndian.PutUint32(fwd[1:5], uint32(target.Page))
	binary.BigEndian.PutUint16(fwd[5:7], target.Slot)
	// Clear whatever lives at the original chain (home may differ from rid
	// when re-forwarding; the old relocated copy must be dropped).
	if home != rid {
		if err := h.clearSlot(home); err != nil {
			return err
		}
	}
	pg, err = h.pager.Fetch(rid.Page)
	if err != nil {
		return err
	}
	h.pager.WillWrite(pg)
	ok, err = pageReplace(pg.Data, int(rid.Slot), fwd[:])
	if err == nil && !ok {
		err = fmt.Errorf("storage: cannot shrink slot %s to forwarding stub", rid)
	}
	h.pager.Unpin(pg, err == nil)
	return err
}

// Scan calls fn for every row in the heap in physical order, passing the
// row's canonical RID and a view of its image. The view aliases the
// pinned page and is valid until fn returns: copy what you keep. fn must
// not modify the heap it scans. fn returning false stops the scan early.
func (h *Heap) Scan(fn func(rid RID, row []byte) (bool, error)) error {
	return h.ScanPages(h.pages, fn)
}

// PageList returns a copy of the heap's page chain in physical order.
// Splitting it into ranges and handing each range to ScanPages is how a
// parallel scan partitions the heap into page-range morsels: every live
// row is reported by exactly one range, because a row's canonical slot
// (its stub, for forwarded rows) lives on exactly one page and relocated
// copies are never reported directly.
func (h *Heap) PageList() []PageID {
	return append([]PageID(nil), h.pages...)
}

// ScanPages is Scan restricted to the given pages (each must belong to
// this heap), under the same contract: the image is valid until fn
// returns, and fn must not modify the heap it scans. Each page is one
// pass — pin, walk the slots calling fn (a forwarded row's image is read
// from its relocation target, pinned for the call), unpin. Concurrent
// ScanPages calls over disjoint ranges are safe: the scan only reads,
// and page pins are mediated by the pager.
func (h *Heap) ScanPages(pages []PageID, fn func(rid RID, row []byte) (bool, error)) error {
	for _, id := range pages {
		pg, err := h.pager.Fetch(id)
		if err != nil {
			return err
		}
		keep, err := h.scanPage(pg, fn)
		h.pager.Unpin(pg, false)
		if err != nil || !keep {
			return err
		}
	}
	return nil
}

// scanPage calls fn for every live row whose canonical slot is on the
// pinned page pg, reporting whether fn asked to continue.
func (h *Heap) scanPage(pg *Page, fn func(rid RID, row []byte) (bool, error)) (bool, error) {
	for s, n := 0, pageNSlots(pg.Data); s < n; s++ {
		rec, err := pageRead(pg.Data, s)
		if err != nil {
			return false, err
		}
		if rec == nil || rec[0] == recRelocated {
			continue // relocated copies are reported via their stub
		}
		rid := RID{Page: pg.ID, Slot: uint16(s)}
		keep := true
		if rec[0] == recForward {
			err = h.visitRelocated(rid, forwardTarget(rec), func(_ RID, img []byte) (ferr error) {
				keep, ferr = fn(rid, img)
				return ferr
			})
		} else {
			keep, err = fn(rid, rec[1:])
		}
		if err != nil || !keep {
			return false, err
		}
	}
	return true, nil
}

// Count returns the number of live rows (forward stubs count once).
func (h *Heap) Count() (int, error) {
	n := 0
	err := h.Scan(func(RID, []byte) (bool, error) { n++; return true, nil })
	return n, err
}
