package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stampPage fills a page's bytes with a value derived from (id, version)
// so any cross-page or stale-version mixup is visible in full.
func stampPage(data []byte, id PageID, version int) {
	b := byte(uint32(id)*31 + uint32(version)*7 + 1)
	for i := range data {
		data[i] = b
	}
}

func checkStamp(t *testing.T, data []byte, id PageID, version int, ctx string) {
	t.Helper()
	want := byte(uint32(id)*31 + uint32(version)*7 + 1)
	for i, got := range data {
		if got != want {
			t.Fatalf("%s: page %d byte %d = %#x, want %#x (version %d)", ctx, id, i, got, want, version)
		}
	}
}

// TestShardedPagerPropertyVsOracle drives the sharded pager with random
// pin/unpin/dirty/free/flush scripts and checks it against a flat-map
// oracle: the oracle records each page's latest written version, and
// every fetch must observe exactly that version regardless of which
// shard the page hashed to or how many times eviction cycled it through
// the backend. Capacity is far below the working set, so the clock hand
// evicts constantly.
func TestShardedPagerPropertyVsOracle(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := NewPagerShards(NewMemBackend(), 16, shards)
				oracle := map[PageID]int{} // id -> latest version
				freed := map[PageID]bool{}
				var ids []PageID

				liveIDs := func() []PageID {
					out := ids[:0:0]
					for _, id := range ids {
						if !freed[id] {
							out = append(out, id)
						}
					}
					return out
				}

				for op := 0; op < 2000; op++ {
					switch k := rng.Intn(100); {
					case k < 25: // allocate a new page
						pg, err := p.NewPage()
						if err != nil {
							t.Fatal(err)
						}
						v := 1
						stampPage(pg.Data, pg.ID, v)
						p.Unpin(pg, true)
						if freed[pg.ID] {
							freed[pg.ID] = false // recycled from the free list
						} else {
							ids = append(ids, pg.ID)
						}
						oracle[pg.ID] = v
					case k < 75: // fetch, verify, maybe rewrite
						live := liveIDs()
						if len(live) == 0 {
							continue
						}
						id := live[rng.Intn(len(live))]
						pg, err := p.Fetch(id)
						if err != nil {
							t.Fatal(err)
						}
						checkStamp(t, pg.Data, id, oracle[id], "fetch")
						if rng.Intn(2) == 0 {
							oracle[id]++
							stampPage(pg.Data, id, oracle[id])
							p.Unpin(pg, true)
						} else {
							p.Unpin(pg, false)
						}
					case k < 85: // free an unpinned page
						live := liveIDs()
						if len(live) == 0 {
							continue
						}
						id := live[rng.Intn(len(live))]
						p.Free(id)
						freed[id] = true
						delete(oracle, id)
					case k < 95: // spot-check counter invariants
						s := p.Stats()
						if s.Fetches != s.Hits+s.Misses {
							t.Fatalf("stats: fetches=%d != hits+misses=%d", s.Fetches, s.Hits+s.Misses)
						}
					default:
						if err := p.FlushAll(); err != nil {
							t.Fatal(err)
						}
						if n := p.DirtyCount(); n != 0 {
							t.Fatalf("DirtyCount=%d after FlushAll", n)
						}
					}
				}

				// Final sweep: every live page must read back its oracle
				// version after a full flush.
				if err := p.FlushAll(); err != nil {
					t.Fatal(err)
				}
				for _, id := range liveIDs() {
					pg, err := p.Fetch(id)
					if err != nil {
						t.Fatal(err)
					}
					checkStamp(t, pg.Data, id, oracle[id], "final")
					p.Unpin(pg, false)
				}
				if leaked := p.PinnedPages(); len(leaked) > 0 {
					t.Fatalf("pinned pages at end of script: %v", leaked)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestShardedPagerConcurrentHammer exercises the lockless pin/unpin fast
// paths under -race: goroutines fetch and release a shared hot set (all
// clean) while others dirty their own disjoint pages. Afterwards the
// pool must balance exactly: no pins at rest, consistent counters, and a
// dirty count matching the writers' page sets.
func TestShardedPagerConcurrentHammer(t *testing.T) {
	const (
		readers  = 8
		writers  = 4
		hotPages = 32
		loops    = 2000
	)
	p := NewPagerShards(NewMemBackend(), hotPages+writers+8, 8)
	var waits obs.WaitStats
	p.SetWaitStats(&waits)
	defer func() {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	hot := make([]PageID, hotPages)
	for i := range hot {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		hot[i] = pg.ID
		p.Unpin(pg, false)
	}
	own := make([]PageID, writers)
	for w := range own {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		own[w] = pg.ID
		p.Unpin(pg, false)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Hold one hot shard's latch while the goroutines start, so the
	// contended acquisition path (WaitPagerLatch) is exercised
	// deterministically rather than by scheduling luck.
	held := &p.shards[p.shardIndex(hot[0])]
	held.mu.Lock()
	var wg, started sync.WaitGroup
	started.Add(readers)
	errs := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			started.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < loops; i++ {
				id := hot[rng.Intn(len(hot))]
				pg, err := p.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				if pg.ID != id {
					errs <- fmt.Errorf("fetched %d, got frame for %d", id, pg.ID)
					return
				}
				p.Unpin(pg, false)
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops/4; i++ {
				pg, err := p.Fetch(own[w])
				if err != nil {
					errs <- err
					return
				}
				pg.Data[0] = byte(i)
				p.Unpin(pg, true)
			}
		}(w)
	}
	started.Wait()
	time.Sleep(2 * time.Millisecond)
	held.mu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if leaked := p.PinnedPages(); len(leaked) > 0 {
		t.Fatalf("pinned pages after hammer: %v", leaked)
	}
	// Readers blocked on the held latch, so the contended path must
	// have recorded waits with real blocked time.
	if wc := waits.Snapshot().Classes["PagerLatch"]; wc.Count == 0 || wc.TotalNanos == 0 {
		t.Fatalf("PagerLatch wait class after contended hammer: %+v, want count and time > 0", wc)
	}
	s := p.Stats()
	if s.Fetches != s.Hits+s.Misses {
		t.Fatalf("stats: fetches=%d != hits+misses=%d", s.Fetches, s.Hits+s.Misses)
	}
	per := p.ShardStats()
	var sum int64
	for _, sh := range per {
		sum += sh.Fetches
	}
	if sum != s.Fetches {
		t.Fatalf("per-shard fetches sum %d != aggregate %d", sum, s.Fetches)
	}
	// Writers' pages may have been cleaned by eviction write-back; the
	// dirty count must never exceed the writers' page count and must
	// reach zero after a flush.
	if n := p.DirtyCount(); n < 0 || n > int64(writers) {
		t.Fatalf("DirtyCount=%d after hammer, want 0..%d", n, writers)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := p.DirtyCount(); n != 0 {
		t.Fatalf("DirtyCount=%d after FlushAll", n)
	}
}

// TestShardedPagerAllDirtyBackpressure pins the satellite contract for
// an all-dirty shard under no-steal: eviction finds no victim, the pool
// grows past its target instead of blocking, a zero-duration
// CheckpointBackpressure wait is recorded, and the pressure callback
// fires so the background checkpointer can clean frames.
func TestShardedPagerAllDirtyBackpressure(t *testing.T) {
	p := NewPagerShards(NewMemBackend(), 8, 1)
	defer func() {
		_ = p.CloseDiscard()
	}()
	p.SetNoSteal(true)
	pokes := 0
	p.SetPressure(func() { pokes++ })
	// Dirty more frames than the pool's capacity: under no-steal none may
	// be written back, so every insertion past the target must grow the
	// shard and signal backpressure.
	for i := 0; i < 12; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(pg.Data, pg.ID, 1)
		p.Unpin(pg, true)
	}
	if pokes == 0 {
		t.Fatal("all-dirty pool grew without signalling checkpoint backpressure")
	}
	if n := p.DirtyCount(); n != 12 {
		t.Fatalf("DirtyCount=%d, want 12 (no-steal must not write back)", n)
	}
	s := p.Stats()
	if s.Writes != 0 || s.Evictions != 0 {
		t.Fatalf("no-steal all-dirty pool wrote back or evicted: %+v", s)
	}
}

// TestPagerLatchWaitsMatchStats: a contended shard latch is recorded
// once, as a WaitPagerLatch wait whose count and time are exactly the
// pager's own LockWaits and LockWaitNanos. Both contended paths run: a
// fetch hit blocked in rlockShard by a latch held exclusively, and a
// miss blocked in lockShard by a latch held shared.
func TestPagerLatchWaitsMatchStats(t *testing.T) {
	b := NewMemBackend()
	seed := NewPager(b, 16)
	var ids []PageID
	for i := 0; i < 2; i++ {
		pg, err := seed.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pg.ID)
		seed.Unpin(pg, true)
	}
	if err := seed.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p := NewPagerShards(b, 16, 4)
	defer func() { _ = p.CloseDiscard() }()
	var waits obs.WaitStats
	p.SetWaitStats(&waits)
	hit, miss := ids[0], ids[1]
	pg, err := p.Fetch(hit)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg, false)

	fetch := func(id PageID) chan error {
		errc := make(chan error, 1)
		go func() {
			pg, err := p.Fetch(id)
			if err == nil {
				p.Unpin(pg, false)
			}
			errc <- err
		}()
		return errc
	}
	agree := func(path string) {
		t.Helper()
		wc, s := waits.Snapshot().Classes["PagerLatch"], p.Stats()
		if wc.Count != s.LockWaits || wc.TotalNanos != s.LockWaitNanos {
			t.Fatalf("after a contended %s: PagerLatch waits %d (%d ns), pager LockWaits %d (%d ns); want them equal",
				path, wc.Count, wc.TotalNanos, s.LockWaits, s.LockWaitNanos)
		}
	}

	// A hit blocks in rlockShard's RLock while the latch is held
	// exclusively. Nothing shows that the reader is parked, so hold the
	// latch a little while and retry until the wait was recorded.
	sh := &p.shards[p.shardIndex(hit)]
	for try := 0; waits.Snapshot().Classes["PagerLatch"].Count == 0; try++ {
		if try == 100 {
			t.Fatal("a fetch hit never contended for a held shard latch")
		}
		sh.mu.Lock()
		errc := fetch(hit)
		time.Sleep(time.Millisecond)
		sh.mu.Unlock()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	agree("fetch hit (rlockShard)")

	// A miss passes rlockShard beside a shared holder and blocks in
	// lockShard's Lock; a pending writer turns TryRLock away, which shows
	// when it is parked.
	before := waits.Snapshot().Classes["PagerLatch"].Count
	sh = &p.shards[p.shardIndex(miss)]
	sh.mu.RLock()
	errc := fetch(miss)
	for sh.mu.TryRLock() {
		sh.mu.RUnlock()
		time.Sleep(10 * time.Microsecond)
	}
	sh.mu.RUnlock()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := waits.Snapshot().Classes["PagerLatch"].Count; got != before+1 {
		t.Fatalf("a miss blocked in lockShard recorded %d PagerLatch waits, want 1", got-before)
	}
	agree("fetch miss (lockShard)")
}
