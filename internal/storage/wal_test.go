package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// walPage builds a deterministic page image.
func walPage(fill byte) []byte {
	img := make([]byte, PageSize)
	for i := range img {
		img[i] = fill
	}
	return img
}

// appendCommitted logs one page image plus a commit record and syncs.
func appendCommitted(t *testing.T, w *WAL, id PageID, fill byte) {
	t.Helper()
	if err := w.AppendPage(id, walPage(fill)); err != nil {
		t.Fatalf("AppendPage: %v", err)
	}
	if err := w.AppendCommit(1); err != nil {
		t.Fatalf("AppendCommit: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestWALTornTailTruncatedOnReplay covers the recovery/append seam: after
// replay observes a torn tail, the sink must hold exactly the intact
// prefix, so records appended post-recovery are contiguous with readable
// ones and a second replay reaches them.
func TestWALTornTailTruncatedOnReplay(t *testing.T) {
	sink := NewMemWALSink()
	w := NewWAL(sink, 0, 0)
	appendCommitted(t, w, 0, 0xAA)

	// Tear the log: append a page record and chop it in half, the classic
	// power-loss artifact.
	if err := w.AppendPage(1, walPage(0xBB)); err != nil {
		t.Fatal(err)
	}
	b := NewMemBackend()
	full, _ := sink.Contents()
	torn := full[:len(full)-PageSize/2]
	sink2 := NewMemWALSink()
	if err := sink2.Append(torn); err != nil {
		t.Fatal(err)
	}

	info, err := ReplayWAL(b, sink2)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	if !info.TornTail {
		t.Fatal("replay did not notice the torn tail")
	}
	after, _ := sink2.Contents()
	if int64(len(after)) != info.IntactBytes {
		t.Fatalf("sink holds %d bytes after replay, want intact prefix of %d", len(after), info.IntactBytes)
	}

	// Post-recovery appends must land right after the intact prefix and be
	// reachable by a second replay (pre-fix they sat beyond the torn bytes
	// and every later replay stopped short of them).
	w2 := NewWAL(sink2, info.LastSeq, info.IntactBytes)
	appendCommitted(t, w2, 2, 0xCC)

	b2 := NewMemBackend()
	info2, err := ReplayWAL(b2, sink2)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if info2.TornTail {
		t.Fatalf("second replay still sees a torn tail: %+v", info2)
	}
	if info2.Commits != 2 {
		t.Fatalf("second replay applied %d commits, want 2 (the post-recovery one included)", info2.Commits)
	}
	got := make([]byte, PageSize)
	if err := b2.ReadPage(2, got); err != nil {
		t.Fatalf("page 2 not applied: %v", err)
	}
	if got[0] != 0xCC {
		t.Fatalf("page 2 byte 0 = %#x, want 0xCC", got[0])
	}
}

// TestWALTruncateToSynced covers the failed-commit seam: bytes appended
// after the last successful Sync are discarded, so a commit record whose
// sync failed cannot be replayed as committed.
func TestWALTruncateToSynced(t *testing.T) {
	sink := NewMemWALSink()
	w := NewWAL(sink, 0, 0)
	appendCommitted(t, w, 0, 0x11)
	synced, _ := sink.Contents()

	// A commit whose records were appended but never synced.
	if err := w.AppendPage(1, walPage(0x22)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCommit(2); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateToSynced(); err != nil {
		t.Fatalf("TruncateToSynced: %v", err)
	}
	if err := w.TruncateToSynced(); err != nil {
		t.Fatalf("TruncateToSynced is not idempotent: %v", err)
	}
	now, _ := sink.Contents()
	if len(now) != len(synced) {
		t.Fatalf("log holds %d bytes after truncation, want the synced %d", len(now), len(synced))
	}

	info, err := ReplayWAL(NewMemBackend(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 1 || info.TornTail {
		t.Fatalf("replay after truncation: %+v, want exactly the synced commit", info)
	}

	// The writer keeps going from the synced sequence number: a fresh
	// append after truncation must still replay.
	appendCommitted(t, w, 3, 0x33)
	info, err = ReplayWAL(NewMemBackend(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 2 || info.TornTail {
		t.Fatalf("replay after post-truncation append: %+v, want 2 commits", info)
	}
}

// TestWALSyncSharedAfterTruncation: a committer whose batch was cut by
// another committer's TruncateToSynced before it synced must not be told
// its commit is durable.
func TestWALSyncSharedAfterTruncation(t *testing.T) {
	w := NewWAL(NewMemWALSink(), 0, 0)
	if err := w.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	target := w.LogSize()
	if err := w.TruncateToSynced(); err != nil {
		t.Fatal(err)
	}
	if err := w.SyncShared(target); err == nil {
		t.Fatalf("SyncShared(%d) on a log truncated to %d returned nil", target, w.LogSize())
	}
}

// TestWALSinkTruncateBounds pins MemWALSink.Truncate's contract.
func TestWALSinkTruncateBounds(t *testing.T) {
	sink := NewMemWALSink()
	if err := sink.Append([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Truncate(4); err != nil {
		t.Fatal(err)
	}
	c, _ := sink.Contents()
	if string(c) != "abcd" {
		t.Fatalf("contents = %q, want abcd", c)
	}
	if err := sink.Truncate(10); err == nil {
		t.Fatal("truncate beyond log length did not error")
	}
	if err := sink.Truncate(-1); err == nil {
		t.Fatal("negative truncate did not error")
	}
}

// errSink fails every operation; ReplayWAL must surface the read error.
type errSink struct{ MemWALSink }

func (errSink) Contents() ([]byte, error) { return nil, errors.New("boom") }

func TestWALReplayReadError(t *testing.T) {
	if _, err := ReplayWAL(NewMemBackend(), &errSink{}); err == nil {
		t.Fatal("replay swallowed the sink read error")
	}
}

// ---------------------------------------------------------------------------
// Group commit

// txScript is one transaction of the group-commit property test: a set
// of page writes appended as a contiguous batch (page images + commit
// record), exactly what the engine logs under its append mutex.
type txScript struct {
	id   int64
	ids  []PageID
	fill map[PageID]byte
	end  int64 // log offset just past this batch's commit record
}

func makeTxScripts(rng *rand.Rand, k, numPages int) []*txScript {
	txs := make([]*txScript, k)
	for i := range txs {
		fill := map[PageID]byte{}
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			fill[PageID(rng.Intn(numPages))] = byte(rng.Intn(256))
		}
		ids := make([]PageID, 0, len(fill))
		for id := range fill {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		txs[i] = &txScript{id: int64(i + 1), ids: ids, fill: fill}
	}
	return txs
}

func appendTxBatch(t *testing.T, w *WAL, tx *txScript) {
	t.Helper()
	for _, id := range tx.ids {
		if err := w.AppendPage(id, walPage(tx.fill[id])); err != nil {
			t.Fatalf("AppendPage: %v", err)
		}
	}
	if err := w.AppendCommit(tx.id); err != nil {
		t.Fatalf("AppendCommit: %v", err)
	}
}

// checkReplayedState asserts the backend holds exactly the model's page
// contents (checking a leading and middle byte of each full-page image).
func checkReplayedState(t *testing.T, label string, b Backend, model map[PageID]byte) {
	t.Helper()
	buf := make([]byte, PageSize)
	for id, fill := range model {
		if err := b.ReadPage(id, buf); err != nil {
			t.Fatalf("%s: page %d unreadable after replay: %v", label, id, err)
		}
		if buf[0] != fill || buf[PageSize/2] != fill {
			t.Fatalf("%s: page %d = %#x/%#x, want fill %#x",
				label, id, buf[0], buf[PageSize/2], fill)
		}
	}
}

// TestWALGroupCommitInterleavingEquivalence is the group-commit property
// test: seeded random interleavings of commit batches — several batches
// appended back to back, then one shared fsync for the whole group —
// must replay to exactly the page state of the equivalent serial
// schedule (same commit order, one fsync per commit), which in turn must
// match a trivial last-writer-wins model. Then every prefix of the
// grouped log (torn tails inside a group batch included) must replay to
// exactly the transactions whose commit record the prefix fully
// contains, truncating the tear cleanly.
func TestWALGroupCommitInterleavingEquivalence(t *testing.T) {
	const numPages = 8
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 4 + rng.Intn(5)
		txs := makeTxScripts(rng, k, numPages)
		order := rng.Perm(k)

		// Grouped schedule: batches enter the log in `order`, a random
		// run of consecutive batches sharing one fsync.
		sink := NewMemWALSink()
		w := NewWAL(sink, 0, 0)
		for i := 0; i < k; {
			g := 1 + rng.Intn(3)
			if i+g > k {
				g = k - i
			}
			for j := i; j < i+g; j++ {
				tx := txs[order[j]]
				appendTxBatch(t, w, tx)
				tx.end = w.LogSize()
			}
			if err := w.SyncShared(w.LogSize()); err != nil {
				t.Fatalf("seed %d: SyncShared: %v", seed, err)
			}
			i += g
		}
		var st Stats
		w.AddStats(&st)
		if st.WALSyncs == 0 || st.WALGroupedCommits != int64(k) {
			t.Fatalf("seed %d: group counters observed %d commits over %d syncs, want %d commits",
				seed, st.WALGroupedCommits, st.WALSyncs, k)
		}

		// Serial schedule: same commit order, one fsync per commit.
		sinkSerial := NewMemWALSink()
		ws := NewWAL(sinkSerial, 0, 0)
		for _, oi := range order {
			appendTxBatch(t, ws, txs[oi])
			if err := ws.Sync(); err != nil {
				t.Fatalf("seed %d: serial Sync: %v", seed, err)
			}
		}

		model := map[PageID]byte{}
		for _, oi := range order {
			for id, fill := range txs[oi].fill {
				model[id] = fill
			}
		}
		bGroup, bSerial := NewMemBackend(), NewMemBackend()
		infoG, err := ReplayWAL(bGroup, sink)
		if err != nil {
			t.Fatalf("seed %d: grouped replay: %v", seed, err)
		}
		infoS, err := ReplayWAL(bSerial, sinkSerial)
		if err != nil {
			t.Fatalf("seed %d: serial replay: %v", seed, err)
		}
		if infoG.Commits != k || infoS.Commits != k {
			t.Fatalf("seed %d: grouped replay %d commits, serial %d, want %d",
				seed, infoG.Commits, infoS.Commits, k)
		}
		checkReplayedState(t, fmt.Sprintf("seed %d grouped", seed), bGroup, model)
		checkReplayedState(t, fmt.Sprintf("seed %d serial", seed), bSerial, model)

		// Torn tails: cut the grouped log at random byte offsets, many of
		// them mid-record or mid-group, and replay the prefix.
		full, _ := sink.Contents()
		for trial := 0; trial < 10; trial++ {
			cut := rng.Intn(len(full) + 1)
			sinkTorn := NewMemWALSink()
			if err := sinkTorn.Append(full[:cut]); err != nil {
				t.Fatal(err)
			}
			bTorn := NewMemBackend()
			info, err := ReplayWAL(bTorn, sinkTorn)
			if err != nil {
				t.Fatalf("seed %d cut %d: torn replay: %v", seed, cut, err)
			}
			wantCommits := 0
			modelTorn := map[PageID]byte{}
			for _, oi := range order {
				tx := txs[oi]
				if tx.end <= int64(cut) {
					wantCommits++
					for id, fill := range tx.fill {
						modelTorn[id] = fill
					}
				}
			}
			if info.Commits != wantCommits {
				t.Fatalf("seed %d cut %d: replayed %d commits, want %d (batch boundaries %v)",
					seed, cut, info.Commits, wantCommits, txs)
			}
			after, _ := sinkTorn.Contents()
			if int64(len(after)) != info.IntactBytes {
				t.Fatalf("seed %d cut %d: sink holds %d bytes after replay, want intact prefix %d",
					seed, cut, len(after), info.IntactBytes)
			}
			checkReplayedState(t, fmt.Sprintf("seed %d cut %d", seed, cut), bTorn, modelTorn)
		}
	}
}

// TestWALSharedSyncConcurrent drives the leader/follower protocol with
// genuinely concurrent committers: G goroutines append their batches
// under a short mutex (the engine's walMu) and call SyncShared. Every
// call must return nil, every commit must replay, and the fsync count
// must not exceed the commit count (at least one shared sync under
// contention is overwhelmingly likely but not guaranteed, so only the
// grouped-commit accounting is asserted exactly).
func TestWALSharedSyncConcurrent(t *testing.T) {
	const writers = 16
	sink := NewMemWALSink()
	w := NewWAL(sink, 0, 0)
	var appendMu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			appendMu.Lock()
			tx := &txScript{
				id:   int64(g + 1),
				ids:  []PageID{PageID(g)},
				fill: map[PageID]byte{PageID(g): byte(g + 1)},
			}
			appendTxBatch(t, w, tx)
			target := w.LogSize()
			appendMu.Unlock()
			errs[g] = w.SyncShared(target)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: SyncShared: %v", g, err)
		}
	}
	var st Stats
	w.AddStats(&st)
	if st.WALGroupedCommits != writers {
		t.Fatalf("grouped commits = %d, want %d", st.WALGroupedCommits, writers)
	}
	if st.WALSyncs > writers || st.WALSyncs == 0 {
		t.Fatalf("syncs = %d, want 1..%d", st.WALSyncs, writers)
	}
	b := NewMemBackend()
	info, err := ReplayWAL(b, sink)
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != writers {
		t.Fatalf("replayed %d commits, want %d", info.Commits, writers)
	}
}
