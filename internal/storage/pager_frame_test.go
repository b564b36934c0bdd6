package storage

import (
	"encoding/binary"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// framePool is a one-shard pool of 8 frames over 32 clean pages, each
// stamped with its id, so a sequential sweep misses on every fetch.
func framePool(t *testing.T) (*Pager, []PageID) {
	t.Helper()
	p := NewPagerShards(NewMemBackend(), 8, 1)
	ids := make([]PageID, 32)
	for i := range ids {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(pg.Data, uint32(pg.ID))
		ids[i] = pg.ID
		p.Unpin(pg, true)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return p, ids
}

// TestFetchMissReusesVictimFrame: in a full pool, a miss reads the page
// into the buffer its victim gave up, so it allocates no PageSize buffer
// (only the Page handle), and the victim's handle no longer reaches the
// bytes.
func TestFetchMissReusesVictimFrame(t *testing.T) {
	p, ids := framePool(t)
	next := 0
	fetch := func() {
		id := ids[next%len(ids)]
		next++
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := PageID(binary.BigEndian.Uint32(pg.Data)); got != id {
			t.Fatalf("page %d holds the bytes of page %d", id, got)
		}
		p.Unpin(pg, false)
	}
	for range ids { // fill the pool
		fetch()
	}

	victim, err := p.Fetch(ids[next%len(ids)])
	if err != nil {
		t.Fatal(err)
	}
	next++
	p.Unpin(victim, false)
	for range ids {
		fetch()
	}
	if victim.Data != nil {
		t.Fatal("an evicted page's handle still holds a frame buffer")
	}

	const runs = 512
	before := p.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, fetch)
	runtime.ReadMemStats(&m1)
	misses := p.Stats().Misses - before.Misses
	if misses < runs {
		t.Fatalf("%d misses over %d fetches: the sweep should miss every time", misses, runs+1)
	}
	bytesPerMiss := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(misses)
	t.Logf("%d misses: %.0f allocations and %.0f bytes per miss", misses, allocs, bytesPerMiss)
	if allocs > 1 {
		t.Errorf("a miss into a full pool allocates %.0f times, want at most 1 (the Page handle)", allocs)
	}
	if bytesPerMiss >= PageSize/4 {
		t.Errorf("a miss into a full pool allocates %.0f bytes, want well under a %d-byte frame", bytesPerMiss, PageSize)
	}
}

// TestNewPageZeroesReusedFrame: a page allocated into a full pool takes
// its victim's buffer, cleared.
func TestNewPageZeroesReusedFrame(t *testing.T) {
	p, ids := framePool(t)
	for _, id := range ids[len(ids)-8:] { // every frame holds stamped bytes
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
	}
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(pg, true)
	for i, b := range pg.Data {
		if b != 0 {
			t.Fatalf("new page %d has byte %d = %#x, want a zeroed frame", pg.ID, i, b)
		}
	}
}

// TestFileBackendConcurrentReadAllocate: reads of distinct pages run
// while Allocate grows the file, with no backend lock around either's
// I/O. Run under -race.
func TestFileBackendConcurrentReadAllocate(t *testing.T) {
	fb, err := OpenFileBackend(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	const readers, perReader = 4, 8
	buf := make([]byte, PageSize)
	for i := 0; i < readers*perReader; i++ {
		id, err := fb.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(buf, uint32(id))
		if err := fb.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for round := 0; round < 50; round++ {
				for k := 0; k < perReader; k++ {
					id := PageID(r*perReader + k)
					if err := fb.ReadPage(id, buf); err != nil {
						t.Error(err)
						return
					}
					if got := PageID(binary.BigEndian.Uint32(buf)); got != id {
						t.Errorf("page %d read back as page %d", id, got)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			id, err := fb.Allocate()
			if err != nil {
				t.Error(err)
				return
			}
			// A page is readable, zeroed, once Allocate returns it.
			b := make([]byte, PageSize)
			if err := fb.ReadPage(id, b); err != nil {
				t.Error(err)
				return
			}
			if binary.BigEndian.Uint32(b) != 0 {
				t.Errorf("freshly allocated page %d is not zeroed", id)
				return
			}
		}
	}()
	wg.Wait()
	if got, want := fb.NumPages(), PageID(readers*perReader+64); got != want {
		t.Fatalf("NumPages = %d, want %d", got, want)
	}
}
