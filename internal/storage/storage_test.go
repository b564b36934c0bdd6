package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func newTestPager(t *testing.T, capacity int) *Pager {
	t.Helper()
	return NewPager(NewMemBackend(), capacity)
}

func TestPagerFetchUnallocated(t *testing.T) {
	p := newTestPager(t, 16)
	if _, err := p.Fetch(0); err == nil {
		t.Fatal("fetch of unallocated page succeeded")
	}
}

func TestPagerNewPageAndFetch(t *testing.T) {
	p := newTestPager(t, 16)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[100] = 0xAB
	id := pg.ID
	p.Unpin(pg, true)

	pg2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if pg2.Data[100] != 0xAB {
		t.Error("page contents lost")
	}
	p.Unpin(pg2, false)

	st := p.Stats()
	if st.Hits != 1 || st.Fetches != 1 {
		t.Errorf("stats = %+v, want 1 fetch / 1 hit", st)
	}
}

func TestPagerEvictionWritesBack(t *testing.T) {
	b := NewMemBackend()
	p := NewPager(b, 8)
	var ids []PageID
	for i := 0; i < 20; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(i)
		ids = append(ids, pg.ID)
		p.Unpin(pg, true)
	}
	// Early pages must have been evicted and written back.
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite small pool")
	}
	for i, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data[0] != byte(i) {
			t.Errorf("page %d data = %d, want %d", id, pg.Data[0], i)
		}
		p.Unpin(pg, false)
	}
}

func TestPagerFreeReuse(t *testing.T) {
	p := newTestPager(t, 16)
	pg, _ := p.NewPage()
	id := pg.ID
	p.Unpin(pg, false)
	p.Free(id)
	pg2, _ := p.NewPage()
	if pg2.ID != id {
		t.Errorf("freed page not reused: got %d want %d", pg2.ID, id)
	}
	p.Unpin(pg2, false)
}

func TestPagerUnpinPanicsOnDouble(t *testing.T) {
	p := newTestPager(t, 16)
	pg, _ := p.NewPage()
	p.Unpin(pg, false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin did not panic")
		}
	}()
	p.Unpin(pg, false)
}

func TestFileBackendPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fb, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(fb, 8)
	pg, _ := p.NewPage()
	copy(pg.Data, []byte("persist me"))
	id := pg.ID
	p.Unpin(pg, true)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, err := OpenFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if fb2.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", fb2.NumPages())
	}
	p2 := NewPager(fb2, 8)
	pg2, err := p2.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pg2.Data, []byte("persist me")) {
		t.Error("data not persisted")
	}
	p2.Unpin(pg2, false)
}

func TestSlottedPageBasics(t *testing.T) {
	d := make([]byte, PageSize)
	initPage(d)
	s1, err := pageInsert(d, []byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pageInsert(d, []byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("slots collide")
	}
	r1, _ := pageRead(d, s1)
	r2, _ := pageRead(d, s2)
	if string(r1) != "alpha" || string(r2) != "beta" {
		t.Fatalf("read back %q %q", r1, r2)
	}
	if err := pageDelete(d, s1); err != nil {
		t.Fatal(err)
	}
	if r, _ := pageRead(d, s1); r != nil {
		t.Error("deleted slot still readable")
	}
	// The empty slot gets reused.
	s3, err := pageInsert(d, []byte("gamma"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("slot not reused: got %d want %d", s3, s1)
	}
}

func TestSlottedPageCompaction(t *testing.T) {
	d := make([]byte, PageSize)
	initPage(d)
	big := bytes.Repeat([]byte("x"), 2000)
	var slots []int
	for {
		s, err := pageInsert(d, big)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 3 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete every other record; dead space is fragmented.
	for i := 0; i < len(slots); i += 2 {
		pageDelete(d, slots[i])
	}
	// A record larger than any single hole must still fit via compaction.
	bigger := bytes.Repeat([]byte("y"), 3000)
	s, err := pageInsert(d, bigger)
	if err != nil {
		t.Fatalf("compaction failed to make room: %v", err)
	}
	r, _ := pageRead(d, s)
	if !bytes.Equal(r, bigger) {
		t.Error("record corrupted by compaction")
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		r, _ := pageRead(d, slots[i])
		if !bytes.Equal(r, big) {
			t.Errorf("slot %d corrupted by compaction", slots[i])
		}
	}
}

func TestPageReplaceShrinkGrow(t *testing.T) {
	d := make([]byte, PageSize)
	initPage(d)
	s, _ := pageInsert(d, []byte("0123456789"))
	ok, err := pageReplace(d, s, []byte("abc"))
	if !ok || err != nil {
		t.Fatalf("shrink replace failed: %v %v", ok, err)
	}
	r, _ := pageRead(d, s)
	if string(r) != "abc" {
		t.Fatalf("after shrink: %q", r)
	}
	ok, err = pageReplace(d, s, bytes.Repeat([]byte("z"), 500))
	if !ok || err != nil {
		t.Fatalf("grow replace failed: %v %v", ok, err)
	}
	r, _ = pageRead(d, s)
	if len(r) != 500 || r[0] != 'z' {
		t.Fatalf("after grow: len %d", len(r))
	}
}

func TestHeapInsertGetDelete(t *testing.T) {
	p := newTestPager(t, 64)
	h, err := CreateHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("row one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || string(got) != "row one" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Error("Get after delete succeeded")
	}
	if n, _ := h.Count(); n != 0 {
		t.Errorf("Count = %d, want 0", n)
	}
}

func TestHeapManyRowsMultiPage(t *testing.T) {
	p := newTestPager(t, 64)
	h, _ := CreateHeap(p)
	const n = 5000
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("row-%06d-%s", i, bytes.Repeat([]byte("p"), i%50))))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if h.NumPages() < 2 {
		t.Fatal("expected multi-page heap")
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		want := fmt.Sprintf("row-%06d-", i)
		if !bytes.HasPrefix(got, []byte(want)) {
			t.Fatalf("row %d corrupted: %q", i, got[:20])
		}
	}
	count, err := h.Count()
	if err != nil || count != n {
		t.Fatalf("Count = %d, %v; want %d", count, err, n)
	}
}

func TestHeapUpdateInPlaceAndForwarded(t *testing.T) {
	p := newTestPager(t, 64)
	h, _ := CreateHeap(p)
	rid, _ := h.Insert([]byte("short"))
	// Fill the page so a grown update cannot stay in place.
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("f"), 500)); err != nil {
			t.Fatal(err)
		}
	}
	// In-place (shrink).
	if err := h.Update(rid, []byte("sm")); err != nil {
		t.Fatal(err)
	}
	got, _ := h.Get(rid)
	if string(got) != "sm" {
		t.Fatalf("after shrink update: %q", got)
	}
	// Force relocation with a large image; the page holding rid is full.
	big := bytes.Repeat([]byte("G"), 7000)
	if err := h.Update(rid, big); err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("after relocating update: len %d err %v", len(got), err)
	}
	// Update again through the forward, forcing a re-relocation.
	big2 := bytes.Repeat([]byte("H"), 7500)
	if err := h.Update(rid, big2); err != nil {
		t.Fatal(err)
	}
	got, _ = h.Get(rid)
	if !bytes.Equal(got, big2) {
		t.Fatal("re-forwarded row corrupted")
	}
	// Scan must yield the row exactly once, at its original RID.
	seen := 0
	h.Scan(func(r RID, row []byte) (bool, error) {
		if bytes.Equal(row, big2) {
			seen++
			if r != rid {
				t.Errorf("forwarded row reported at %v, want %v", r, rid)
			}
		}
		return true, nil
	})
	if seen != 1 {
		t.Errorf("forwarded row seen %d times in scan", seen)
	}
	// Delete through the forward.
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Error("forwarded row still readable after delete")
	}
}

// TestHeapRelocatedSlotIsNoRow: the slot holding a forwarded row's
// relocated copy is not a row of its own. A RID naming it — a stale RID
// whose slot was reused for the copy — must read, update and delete
// nothing, and leave the forwarded row intact.
func TestHeapRelocatedSlotIsNoRow(t *testing.T) {
	p := newTestPager(t, 64)
	h, _ := CreateHeap(p)
	rid, _ := h.Insert([]byte("short"))
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("f"), 500)); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("G"), 7000)
	if err := h.Update(rid, big); err != nil {
		t.Fatal(err)
	}
	copyAt, err := h.home(rid)
	if err != nil || copyAt == rid {
		t.Fatalf("home(%v) = %v, %v; want the relocation target", rid, copyAt, err)
	}
	if _, err := h.Get(copyAt); err == nil {
		t.Error("Get on the relocated copy's slot returned a row")
	}
	if _, err := h.GetBatch([]RID{copyAt}); err == nil {
		t.Error("GetBatch on the relocated copy's slot returned a row")
	}
	if err := h.Update(copyAt, []byte("clobber")); err == nil {
		t.Error("Update on the relocated copy's slot succeeded")
	}
	if err := h.Delete(copyAt); err == nil {
		t.Error("Delete on the relocated copy's slot succeeded")
	}
	if got, err := h.Get(rid); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("forwarded row after the stale-RID calls: len %d err %v", len(got), err)
	}
}

// TestHeapForeignRIDIsNoRow: a RID on a page the heap does not own —
// another heap's, or a page that is no heap page at all — names no row:
// reads, updates and deletes through it fail cleanly instead of
// returning the other table's row or running off the slot directory.
func TestHeapForeignRIDIsNoRow(t *testing.T) {
	p := newTestPager(t, 64)
	h, _ := CreateHeap(p)
	other, _ := CreateHeap(p)
	if _, err := h.Insert([]byte("mine")); err != nil {
		t.Fatal(err)
	}
	theirs, err := other.Insert([]byte("theirs"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := p.NewPage() // not a heap page: its slot count is garbage
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw.Data {
		raw.Data[i] = 0xFF
	}
	p.Unpin(raw, true)
	for _, rid := range []RID{theirs, {Page: raw.ID, Slot: 3}, {Page: InvalidPage}} {
		if got, err := h.Get(rid); err == nil {
			t.Errorf("Get(%v) returned %q", rid, got)
		}
		if _, err := h.GetBatch([]RID{rid}); err == nil {
			t.Errorf("GetBatch(%v) returned a row", rid)
		}
		if err := h.Update(rid, []byte("x")); err == nil {
			t.Errorf("Update(%v) succeeded", rid)
		}
		if err := h.Delete(rid); err == nil {
			t.Errorf("Delete(%v) succeeded", rid)
		}
	}
	if got, err := other.Get(theirs); err != nil || string(got) != "theirs" {
		t.Fatalf("the other heap's row: %q, %v", got, err)
	}
}

func TestHeapGetBatch(t *testing.T) {
	p := newTestPager(t, 64)
	h, _ := CreateHeap(p)
	const n = 300
	rids := make([]RID, n)
	imgs := make([][]byte, n)
	for i := 0; i < n; i++ {
		imgs[i] = []byte(fmt.Sprintf("row-%04d-%s", i, bytes.Repeat([]byte("x"), i%40)))
		rid, err := h.Insert(imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	// Relocate a few rows so the batch read crosses forwarding pointers.
	forwarded := []int{5, 17, 250}
	for _, i := range forwarded {
		imgs[i] = bytes.Repeat([]byte("F"), 6000)
		if err := h.Update(rids[i], imgs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// A shuffled multiset of RIDs, including duplicates and the forwarded
	// rows: the callback must see each request at its ORIGINAL index with
	// the right image, whatever page order the read actually used.
	rng := rand.New(rand.NewSource(42))
	req := make([]int, 0, 120)
	for i := 0; i < 100; i++ {
		req = append(req, rng.Intn(n))
	}
	req = append(req, 5, 5, 17, 250) // duplicates + all forwarded rows
	batch := make([]RID, len(req))
	for i, idx := range req {
		batch[i] = rids[idx]
	}

	got := make([][]byte, len(req))
	if err := h.GetBatchFunc(batch, nil, func(i int, img []byte) error {
		if got[i] != nil {
			return fmt.Errorf("index %d delivered twice", i)
		}
		got[i] = append([]byte(nil), img...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, idx := range req {
		if !bytes.Equal(got[i], imgs[idx]) {
			t.Fatalf("batch[%d] (row %d): got %d bytes, want %d", i, idx, len(got[i]), len(imgs[idx]))
		}
	}
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("batch read leaked pins: %v", pinned)
	}

	// GetBatch (copying wrapper) restores input order.
	copies, err := h.GetBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range req {
		if !bytes.Equal(copies[i], imgs[idx]) {
			t.Fatalf("GetBatch[%d]: wrong image", i)
		}
	}

	// The page-sorted batch read must pin each page once per run instead
	// of once per row: fetching many same-page rows costs far fewer
	// logical page requests than per-row Get.
	before := p.Stats().Fetches
	if _, err := h.GetBatch(rids[:64]); err != nil {
		t.Fatal(err)
	}
	batchFetches := p.Stats().Fetches - before
	before = p.Stats().Fetches
	for _, rid := range rids[:64] {
		if _, err := h.Get(rid); err != nil {
			t.Fatal(err)
		}
	}
	rowFetches := p.Stats().Fetches - before
	if batchFetches*2 > rowFetches {
		t.Errorf("batch read cost %d page fetches vs %d per-row; expected well under half", batchFetches, rowFetches)
	}

	// Empty batch is a no-op.
	if err := h.GetBatchFunc(nil, nil, func(int, []byte) error {
		t.Error("callback on empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A deleted row fails the whole batch, with no leaked pins.
	if err := h.Delete(rids[30]); err != nil {
		t.Fatal(err)
	}
	if err := h.GetBatchFunc([]RID{rids[1], rids[30]}, nil, func(int, []byte) error { return nil }); err == nil {
		t.Error("batch read of deleted row succeeded")
	}
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("failed batch read leaked pins: %v", pinned)
	}
}

func TestHeapTruncate(t *testing.T) {
	p := newTestPager(t, 64)
	h, _ := CreateHeap(p)
	for i := 0; i < 1000; i++ {
		h.Insert(bytes.Repeat([]byte("t"), 100))
	}
	if err := h.Truncate(); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Count(); n != 0 {
		t.Errorf("Count after truncate = %d", n)
	}
	if h.NumPages() != 1 {
		t.Errorf("NumPages after truncate = %d", h.NumPages())
	}
	if _, err := h.Insert([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestHeapOpenReattach(t *testing.T) {
	p := newTestPager(t, 256)
	h, _ := CreateHeap(p)
	var rids []RID
	for i := 0; i < 2000; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("persisted-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	h2, err := OpenHeap(p, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumPages() != h.NumPages() {
		t.Errorf("reopened heap has %d pages, want %d", h2.NumPages(), h.NumPages())
	}
	got, err := h2.Get(rids[1500])
	if err != nil || string(got) != "persisted-1500" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
}

func TestHeapRejectsOversizeRecord(t *testing.T) {
	p := newTestPager(t, 16)
	h, _ := CreateHeap(p)
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Error("oversize record accepted")
	}
}

func TestRIDInt64RoundTrip(t *testing.T) {
	prop := func(page uint32, slot uint16) bool {
		r := RID{Page: PageID(page), Slot: slot}
		return RIDFromInt64(r.Int64()) == r
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestHeapRandomizedModel runs a random workload against the heap and an
// in-memory model map, checking full agreement after every 500 steps.
func TestHeapRandomizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newTestPager(t, 32)
	h, _ := CreateHeap(p)
	model := map[RID][]byte{}
	var live []RID

	randRow := func() []byte {
		n := rng.Intn(600)
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0: // insert
			row := randRow()
			rid, err := h.Insert(row)
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("step %d: RID %v reused while live", step, rid)
			}
			model[rid] = row
			live = append(live, rid)
		case op < 8: // update
			i := rng.Intn(len(live))
			row := randRow()
			if err := h.Update(live[i], row); err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
			model[live[i]] = row
		default: // delete
			i := rng.Intn(len(live))
			rid := live[i]
			if err := h.Delete(rid); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			delete(model, rid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%500 == 499 {
			seen := map[RID]bool{}
			err := h.Scan(func(rid RID, row []byte) (bool, error) {
				want, ok := model[rid]
				if !ok {
					return false, fmt.Errorf("scan yielded unknown rid %v", rid)
				}
				if !bytes.Equal(row, want) {
					return false, fmt.Errorf("rid %v: data mismatch", rid)
				}
				if seen[rid] {
					return false, fmt.Errorf("rid %v yielded twice", rid)
				}
				seen[rid] = true
				return true, nil
			})
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if len(seen) != len(model) {
				t.Fatalf("step %d: scan saw %d rows, model has %d", step, len(seen), len(model))
			}
		}
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	p := NewPager(NewMemBackend(), 1024)
	h, _ := CreateHeap(p)
	row := bytes.Repeat([]byte("r"), 120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	p := NewPager(NewMemBackend(), 4096)
	h, _ := CreateHeap(p)
	row := bytes.Repeat([]byte("r"), 120)
	for i := 0; i < 10000; i++ {
		h.Insert(row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		h.Scan(func(RID, []byte) (bool, error) { n++; return true, nil })
		if n != 10000 {
			b.Fatal("bad count")
		}
	}
}
