package loblib

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/storage"
)

func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"lob":  NewLOBStore(storage.NewPager(storage.NewMemBackend(), 128)),
		"file": NewFileStore_(fs),
	}
}

// NewFileStore_ is an identity helper so both stores share one test body.
func NewFileStore_(fs *FileStore) Store { return fs }

func TestBlobReadWriteBothStores(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id, err := s.Create()
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			data := []byte("hello, large object world")
			if _, err := b.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := b.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read back %q", got)
			}
			if n, _ := b.Length(); n != int64(len(data)) {
				t.Errorf("Length = %d", n)
			}
			// Overwrite in the middle.
			b.WriteAt([]byte("LARGE"), 7)
			b.ReadAt(got, 0)
			if string(got) != "hello, LARGE object world" {
				t.Errorf("after overwrite: %q", got)
			}
			// Partial read at offset.
			part := make([]byte, 5)
			if _, err := b.ReadAt(part, 7); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(part) != "LARGE" {
				t.Errorf("offset read = %q", part)
			}
		})
	}
}

func TestBlobMultiPageAndSparseWrite(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.Create()
			b, _ := s.Open(id)
			// Write spanning several pages.
			big := bytes.Repeat([]byte("0123456789abcdef"), 3000) // 48000 bytes
			if _, err := b.WriteAt(big, 0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(big))
			if _, err := b.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, big) {
				t.Fatal("multi-page data corrupted")
			}
			// Write past the end creates a hole that reads as zeros.
			if _, err := b.WriteAt([]byte("tail"), int64(len(big))+10000); err != nil {
				t.Fatal(err)
			}
			hole := make([]byte, 100)
			if _, err := b.ReadAt(hole, int64(len(big))+5000); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			for _, c := range hole {
				if c != 0 {
					t.Fatal("hole not zero-filled")
				}
			}
		})
	}
}

func TestBlobTruncate(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.Create()
			b, _ := s.Open(id)
			b.WriteAt(bytes.Repeat([]byte("z"), 20000), 0)
			if err := b.Truncate(100); err != nil {
				t.Fatal(err)
			}
			if n, _ := b.Length(); n != 100 {
				t.Fatalf("Length after truncate = %d", n)
			}
			// Growing again must expose zeros, not stale data.
			if err := b.Truncate(20000); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 50)
			if _, err := b.ReadAt(buf, 150); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			for _, c := range buf {
				if c != 0 {
					t.Fatal("stale data visible after truncate-regrow")
				}
			}
		})
	}
}

func TestReadPastEOF(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.Create()
			b, _ := s.Open(id)
			b.WriteAt([]byte("abc"), 0)
			buf := make([]byte, 10)
			n, err := b.ReadAt(buf, 0)
			if n != 3 || err != io.EOF {
				t.Errorf("short read = %d, %v; want 3, EOF", n, err)
			}
			if _, err := b.ReadAt(buf, 100); err != io.EOF {
				t.Errorf("read past EOF err = %v", err)
			}
		})
	}
}

func TestLOBDeleteFreesPages(t *testing.T) {
	p := storage.NewPager(storage.NewMemBackend(), 128)
	s := NewLOBStore(p)
	id, _ := s.Create()
	b, _ := s.Open(id)
	b.WriteAt(bytes.Repeat([]byte("x"), 100000), 0)
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(id); err == nil {
		t.Error("deleted LOB still opens")
	}
	if err := s.Delete(id); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestStatsTracking(t *testing.T) {
	fsDir := t.TempDir()
	fs, _ := NewFileStore(fsDir, false)
	id, _ := fs.Create()
	b, _ := fs.Open(id)
	b.WriteAt([]byte("12345"), 0)
	b.ReadAt(make([]byte, 5), 0)
	st := fs.Stats()
	if st.WriteOps != 1 || st.ReadOps != 1 || st.BytesWritten != 5 || st.BytesRead != 5 {
		t.Errorf("file stats = %+v", st)
	}
	if st.PhysicalWrites != 1 {
		t.Errorf("file PhysicalWrites = %d, want 1 (write-through)", st.PhysicalWrites)
	}

	p := storage.NewPager(storage.NewMemBackend(), 128)
	ls := NewLOBStore(p)
	id, _ = ls.Create()
	lb, _ := ls.Open(id)
	lb.WriteAt([]byte("12345"), 0)
	st = ls.Stats()
	if st.WriteOps != 1 {
		t.Errorf("lob WriteOps = %d", st.WriteOps)
	}
	if st.PhysicalWrites != 0 {
		t.Errorf("lob PhysicalWrites = %d, want 0 before flush", st.PhysicalWrites)
	}
	lb.WriteAt([]byte("678"), 5)
	if d := ls.Stats().WriteOps - st.WriteOps; d != 1 {
		t.Errorf("lob WriteOps grew by %d over one write, want 1", d)
	}
}

func TestRandomizedBlobAgainstBuffer(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			id, _ := s.Create()
			b, _ := s.Open(id)
			model := make([]byte, 0, 1<<16)
			for step := 0; step < 300; step++ {
				off := int64(rng.Intn(40000))
				n := rng.Intn(3000)
				data := make([]byte, n)
				rng.Read(data)
				if _, err := b.WriteAt(data, off); err != nil {
					t.Fatal(err)
				}
				if int(off)+n > len(model) {
					model = append(model, make([]byte, int(off)+n-len(model))...)
				}
				copy(model[off:], data)

				if ln, _ := b.Length(); ln != int64(len(model)) {
					t.Fatalf("step %d: Length = %d, model %d", step, ln, len(model))
				}
				if step%25 == 24 {
					got := make([]byte, len(model))
					if _, err := b.ReadAt(got, 0); err != nil && err != io.EOF {
						t.Fatal(err)
					}
					if !bytes.Equal(got, model) {
						t.Fatalf("step %d: contents diverged", step)
					}
				}
			}
		})
	}
}

func TestRangeLockSharedAndExclusive(t *testing.T) {
	lt := NewRangeLockTable()
	// Two shared locks on overlapping ranges coexist.
	lt.Lock(1, 100, 0, 10, false)
	if !lt.TryLock(1, 101, 5, 10, false) {
		t.Fatal("shared locks should not conflict")
	}
	// Exclusive conflicts with shared overlap.
	if lt.TryLock(1, 102, 8, 4, true) {
		t.Fatal("exclusive lock granted over shared overlap")
	}
	// Non-overlapping exclusive is fine.
	if !lt.TryLock(1, 102, 50, 10, true) {
		t.Fatal("disjoint exclusive lock denied")
	}
	// Different LOB entirely independent.
	if !lt.TryLock(2, 103, 0, 100, true) {
		t.Fatal("lock table leaked across LOB ids")
	}
	if lt.HeldCount(1) != 3 {
		t.Errorf("HeldCount = %d", lt.HeldCount(1))
	}
	// Same owner may stack overlapping locks (re-entrancy); [0,5) overlaps
	// only owner 100's own shared lock.
	if !lt.TryLock(1, 100, 0, 5, true) {
		t.Error("same-owner upgrade denied")
	}
}

func TestRangeLockBlocksUntilRelease(t *testing.T) {
	lt := NewRangeLockTable()
	lt.Lock(1, 1, 0, 100, true)
	got := make(chan struct{})
	go func() {
		lt.Lock(1, 2, 50, 10, true)
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("conflicting lock acquired immediately")
	case <-time.After(30 * time.Millisecond):
	}
	if err := lt.Unlock(1, 1, 0, 100, true); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("blocked lock never woke")
	}
	if err := lt.Unlock(1, 9, 0, 5, false); err == nil {
		t.Error("unlock of unheld range succeeded")
	}
}

// TestLOBLivesInPages: a LOB whose page list outgrows its header page
// continues on an overflow page, and a second store over the same pager
// reads it back — the locator and the pages are the whole LOB. Shrinking
// below one page and growing again exposes zeros, not stale data.
func TestLOBLivesInPages(t *testing.T) {
	p := storage.NewPager(storage.NewMemBackend(), 64)
	s := NewLOBStore(p)
	id, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, (lobSlots+3)*storage.PageSize+17)
	for i := range data {
		data[i] = byte(i*7 + i/storage.PageSize)
	}
	if _, err := b.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	b2, err := NewLOBStore(p).Open(id)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := b2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("LOB spanning an overflow page read back wrong")
	}
	if err := b2.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if err := b2.Truncate(int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:10], data[:10]) || !bytes.Equal(got[10:], make([]byte, len(data)-10)) {
		t.Fatal("shrink then regrow did not give the kept prefix followed by zeros")
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
}

// TestLOBOpenRejectsNonHeader: a locator must name a LOB header page.
func TestLOBOpenRejectsNonHeader(t *testing.T) {
	s := NewLOBStore(storage.NewPager(storage.NewMemBackend(), 16))
	id, _ := s.Create()
	b, _ := s.Open(id)
	if _, err := b.WriteAt([]byte("data page"), 0); err != nil {
		t.Fatal(err)
	}
	// id+1 is the LOB's data page; the others name no page at all.
	for _, bad := range []int64{id + 1, 1 << 20, -1} {
		if _, err := s.Open(bad); err == nil {
			t.Errorf("Open(%d) accepted a locator that is not a LOB header", bad)
		}
	}
}

// TestLOBShrinkKeepsDroppedPages: Shrink hands back the pages it drops
// without freeing them, so the allocator cannot give them to anyone
// else, and Reattach plus the zeroed tail bytes restores the LOB.
func TestLOBShrinkKeepsDroppedPages(t *testing.T) {
	p := storage.NewPager(storage.NewMemBackend(), 16)
	s := NewLOBStore(p)
	id, _ := s.Create()
	b, _ := s.Open(id)
	data := bytes.Repeat([]byte("0123456789"), 3*storage.PageSize/10+10)
	if _, err := b.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	cut := int64(storage.PageSize + 5)
	dropped, err := s.Shrink(id, cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 2 {
		t.Fatalf("Shrink dropped %d pages, want 2", len(dropped))
	}
	if n, _ := b.Length(); n != cut {
		t.Fatalf("Length after Shrink = %d, want %d", n, cut)
	}
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg, false)
	for _, d := range dropped {
		if pg.ID == d {
			t.Fatalf("page %d was handed out again while Shrink's caller still holds it", d)
		}
	}
	if err := s.Reattach(id, dropped, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt(data[cut:2*storage.PageSize], cut); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := b.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Reattach did not restore the LOB")
	}
}
