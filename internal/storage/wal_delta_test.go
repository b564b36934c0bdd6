package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"
)

// ---------------------------------------------------------------------------
// Helpers

// walRec is one parsed record of a well-formed log.
type walRec struct {
	kind     byte
	off, end int // byte span in the log
}

func parseWALRecords(t *testing.T, log []byte) []walRec {
	t.Helper()
	var recs []walRec
	for off := 0; off < len(log); {
		if len(log)-off < walHeaderSize {
			t.Fatalf("log ends inside a header at %d", off)
		}
		n := int(binary.BigEndian.Uint32(log[off : off+4]))
		end := off + walHeaderSize + n
		if end > len(log) {
			t.Fatalf("log ends inside a record at %d", off)
		}
		recs = append(recs, walRec{kind: log[off+8], off: off, end: end})
		off = end
	}
	return recs
}

// frameWALRecord builds a record with a valid header and CRC around an
// arbitrary payload, so tests can hand replay records the writer would
// never produce.
func frameWALRecord(kind byte, seq uint64, payload []byte) []byte {
	rec := make([]byte, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	rec[8] = kind
	binary.BigEndian.PutUint64(rec[9:17], seq)
	copy(rec[walHeaderSize:], payload)
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], walCRC))
	return rec
}

func cloneMemBackend(b *MemBackend) *MemBackend {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := NewMemBackend()
	for _, pg := range b.pages {
		c.pages = append(c.pages, append([]byte(nil), pg...))
	}
	return c
}

func sinkWith(log []byte) *MemWALSink {
	s := NewMemWALSink()
	s.buf = append(s.buf, log...)
	return s
}

func requireSameBackend(t testing.TB, label string, a, b *MemBackend) {
	t.Helper()
	if len(a.pages) != len(b.pages) {
		t.Fatalf("%s: %d pages vs %d", label, len(a.pages), len(b.pages))
	}
	for i := range a.pages {
		if !bytes.Equal(a.pages[i], b.pages[i]) {
			t.Fatalf("%s: page %d differs", label, i)
		}
	}
}

// commitFullImages is the reference commit sweep: the pre-delta
// algorithm, which logs the whole image of every unlogged dirty frame
// the transaction owns or that is orphaned, in page-id order.
func commitFullImages(t testing.TB, p *Pager, w *WAL, owner int64) {
	t.Helper()
	var frames []*Page
	for i := range p.shards {
		for _, pg := range p.shards[i].frames {
			if pg.dirty && !pg.logged && (pg.owner == owner || pg.owner == 0) {
				frames = append(frames, pg)
			}
		}
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i].ID < frames[j].ID })
	for _, pg := range frames {
		if err := w.AppendPage(pg.ID, pg.Data); err != nil {
			t.Fatal(err)
		}
		pg.logged, pg.owner = true, 0
	}
	if err := w.AppendCommit(owner); err != nil {
		t.Fatal(err)
	}
}

func commitDeltas(t testing.TB, p *Pager, w *WAL, owner int64) int {
	t.Helper()
	n, err := p.AppendUnloggedFor(w, owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCommit(owner); err != nil {
		t.Fatal(err)
	}
	return n
}

// ---------------------------------------------------------------------------
// Property: delta logging replays to the same bytes as full-image logging

// deltaRig is one side of the property test: a no-steal pool over its
// own backend and log.
type deltaRig struct {
	backend *MemBackend
	sink    *MemWALSink
	wal     *WAL
	pager   *Pager
	commit  func(owner int64)
}

func newDeltaRig(t *testing.T, deltas bool) *deltaRig {
	r := &deltaRig{backend: NewMemBackend(), sink: NewMemWALSink()}
	r.wal = NewWAL(r.sink, 0, 0)
	r.pager = NewPagerShards(r.backend, 8, 2)
	r.pager.SetNoSteal(true)
	if deltas {
		r.commit = func(owner int64) { commitDeltas(t, r.pager, r.wal, owner) }
	} else {
		r.commit = func(owner int64) { commitFullImages(t, r.pager, r.wal, owner) }
	}
	return r
}

// deltaScript drives both rigs through the same seeded sequence of
// mutations, commits, rollbacks and checkpoints and leaves them as a
// crash would: whatever is in the logs and backends, open transactions
// abandoned.
func deltaScript(t *testing.T, seed int64, rigs ...*deltaRig) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type txState struct {
		id     int64
		before map[PageID][]byte // pre-images, for rollback
	}
	var pages []PageID
	var open []*txState
	nextTx := int64(1)

	// mutate applies fn to page id on every rig inside a window owned by
	// owner (undo = rollback replay).
	mutate := func(owner int64, undo bool, id PageID, fn func(d []byte)) {
		for _, r := range rigs {
			restore := r.pager.PushWriter(owner, undo)
			pg, err := r.pager.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			r.pager.WillWrite(pg)
			fn(pg.Data)
			r.pager.Unpin(pg, true)
			restore()
		}
	}
	ownerOf := func(id PageID) int64 {
		r := rigs[0]
		sh := &r.pager.shards[r.pager.shardIndex(id)]
		if pg, ok := sh.frames[id]; ok {
			return pg.owner
		}
		return 0
	}
	read := func(id PageID) []byte {
		pg, err := rigs[0].pager.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]byte(nil), pg.Data...)
		rigs[0].pager.Unpin(pg, false)
		return out
	}

	for step := 0; step < 80; step++ {
		switch op := rng.Intn(100); {
		case op < 8 || len(pages) == 0: // allocate a page in a fresh committed txn
			id := PageID(0)
			fill := byte(rng.Intn(256))
			for i, r := range rigs {
				restore := r.pager.PushWriter(nextTx, false)
				pg, err := r.pager.NewPage()
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 && pg.ID != id {
					t.Fatalf("rigs diverged: page %d vs %d", pg.ID, id)
				}
				id = pg.ID
				for j := range pg.Data {
					pg.Data[j] = fill
				}
				r.pager.Unpin(pg, true)
				restore()
				r.commit(nextTx)
				r.pager.ReleaseOwner(nextTx)
			}
			pages = append(pages, id)
			nextTx++
		case op < 55: // mutate a page inside some open (or new) transaction
			if len(open) == 0 || (len(open) < 3 && rng.Intn(4) == 0) {
				open = append(open, &txState{id: nextTx, before: map[PageID][]byte{}})
				nextTx++
			}
			tx := open[rng.Intn(len(open))]
			id := pages[rng.Intn(len(pages))]
			if o := ownerOf(id); o != 0 && o != tx.id {
				continue // first dirtier wins
			}
			if _, ok := tx.before[id]; !ok {
				tx.before[id] = read(id)
			}
			// One to three ranges: mostly small, sometimes most of the page
			// (forcing the oversized-delta fallback).
			type edit struct {
				off int
				b   []byte
			}
			var edits []edit
			for k, n := 0, 1+rng.Intn(3); k < n; k++ {
				ln := 1 + rng.Intn(40)
				if rng.Intn(10) == 0 {
					ln = PageSize/2 + rng.Intn(PageSize/2)
				}
				off := rng.Intn(PageSize - ln + 1)
				b := make([]byte, ln)
				rng.Read(b)
				edits = append(edits, edit{off, b})
			}
			mutate(tx.id, false, id, func(d []byte) {
				for _, e := range edits {
					copy(d[e.off:], e.b)
				}
			})
		case op < 62: // announce a write, then leave the page alone
			id := pages[rng.Intn(len(pages))]
			for _, r := range rigs {
				pg, err := r.pager.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				r.pager.WillWrite(pg)
				r.pager.Unpin(pg, false)
			}
		case op < 77 && len(open) > 0: // commit
			i := rng.Intn(len(open))
			tx := open[i]
			open = append(open[:i], open[i+1:]...)
			for _, r := range rigs {
				r.commit(tx.id)
				r.pager.ReleaseOwner(tx.id)
			}
		case op < 90 && len(open) > 0: // roll back
			i := rng.Intn(len(open))
			tx := open[i]
			open = append(open[:i], open[i+1:]...)
			ids := make([]PageID, 0, len(tx.before))
			for id := range tx.before {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for _, id := range ids {
				img := tx.before[id]
				// Logical undo: sometimes byte-exact, sometimes equivalent
				// content laid out differently (here: junk in the tail).
				var junk []byte
				if rng.Intn(2) == 0 {
					junk = make([]byte, 1+rng.Intn(16))
					rng.Read(junk)
				}
				mutate(tx.id, true, id, func(d []byte) {
					copy(d, img)
					copy(d[PageSize-len(junk):], junk)
				})
			}
			for _, r := range rigs {
				r.pager.ReleaseOwner(tx.id)
			}
		case len(open) == 0: // checkpoint (needs quiescence)
			for _, r := range rigs {
				r.commit(0)
				if err := r.pager.FlushAll(); err != nil {
					t.Fatal(err)
				}
				if err := r.wal.Reset(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestCrashDeltaReplayMatchesFullImages runs seeded scripts of page
// mutations, commits, rollbacks (byte-exact and merely equivalent),
// clean evictions and checkpoints twice — once through the delta-logging
// commit sweep, once through a full-image-only reference sweep — and
// requires both logs to replay to byte-identical backends: from the
// clean tail, and from a tail torn inside a delta record (which must
// match the reference cut at the previous commit). The Crash prefix puts
// it in `make crash` beside the engine-level matrices.
func TestCrashDeltaReplayMatchesFullImages(t *testing.T) {
	deltaRecs, tornChecked, evictions := 0, 0, int64(0)
	for seed := int64(1); seed <= 150; seed++ {
		d, f := newDeltaRig(t, true), newDeltaRig(t, false)
		deltaScript(t, seed, d, f)
		label := fmt.Sprintf("seed %d", seed)
		evictions += d.pager.Stats().Evictions

		dLog, _ := d.sink.Contents()
		fLog, _ := f.sink.Contents()
		if len(dLog) > len(fLog) {
			t.Fatalf("%s: delta log (%d B) larger than full-image log (%d B)", label, len(dLog), len(fLog))
		}

		db, fb := cloneMemBackend(d.backend), cloneMemBackend(f.backend)
		dInfo, err := ReplayWAL(db, sinkWith(dLog))
		if err != nil {
			t.Fatalf("%s: delta replay: %v", label, err)
		}
		fInfo, err := ReplayWAL(fb, sinkWith(fLog))
		if err != nil {
			t.Fatalf("%s: reference replay: %v", label, err)
		}
		if dInfo.TornTail || fInfo.TornTail || dInfo.Commits != fInfo.Commits {
			t.Fatalf("%s: replay disagrees: delta %+v reference %+v", label, dInfo, fInfo)
		}
		requireSameBackend(t, label+" clean tail", db, fb)

		// Tear the delta log inside its last delta record; the reference
		// is cut after the commit preceding that record's batch.
		dRecs, fRecs := parseWALRecords(t, dLog), parseWALRecords(t, fLog)
		last := -1
		for i, r := range dRecs {
			if r.kind == walRecDelta {
				deltaRecs++
				last = i
			}
		}
		if last < 0 {
			continue
		}
		commitsBefore := 0
		for _, r := range dRecs[:last] {
			if r.kind == walRecCommit {
				commitsBefore++
			}
		}
		fCut := 0
		for n, i := 0, 0; n < commitsBefore; i++ {
			if fRecs[i].kind == walRecCommit {
				n++
				fCut = fRecs[i].end
			}
		}
		r := dRecs[last]
		db, fb = cloneMemBackend(d.backend), cloneMemBackend(f.backend)
		dInfo, err = ReplayWAL(db, sinkWith(dLog[:r.off+(r.end-r.off)/2]))
		if err != nil {
			t.Fatalf("%s: torn delta replay: %v", label, err)
		}
		if !dInfo.TornTail || dInfo.Commits != commitsBefore {
			t.Fatalf("%s: torn replay applied %d commits (torn=%v), want %d", label, dInfo.Commits, dInfo.TornTail, commitsBefore)
		}
		if _, err := ReplayWAL(fb, sinkWith(fLog[:fCut])); err != nil {
			t.Fatalf("%s: cut reference replay: %v", label, err)
		}
		requireSameBackend(t, label+" torn tail", db, fb)
		tornChecked++
	}
	if deltaRecs == 0 || tornChecked == 0 || evictions == 0 {
		t.Fatalf("scripts never produced a delta record (%d), a torn case (%d) or an eviction (%d)", deltaRecs, tornChecked, evictions)
	}
}

// ---------------------------------------------------------------------------
// Format

// TestWALDeltaRecordGolden pins the kind-3 layout: header (payload length
// u32, CRC32-C u32, kind u8, sequence u64), then page id u32 and
// ascending (offset u16, length u16, bytes) ranges. Runs fewer than four
// equal bytes apart merge into one range.
func TestWALDeltaRecordGolden(t *testing.T) {
	base := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	cur[16], cur[17] = 0xAA, 0xBB
	cur[20] = 0xCC // two equal bytes after 17: merged with the run at 16
	cur[4096] = 0xDD
	cur[PageSize-1] = 0xEE

	sink := NewMemWALSink()
	w := NewWAL(sink, 0, 0)
	staged, full, err := w.stagePage(7, base, cur)
	if err != nil || !staged || full {
		t.Fatalf("stagePage = staged %v full %v err %v, want a delta", staged, full, err)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	const want = "00000017" + "e74608e9" + "03" + "0000000000000001" + // header
		"00000007" + // page id
		"00100005" + "aabb0000cc" + // [16,21)
		"10000001" + "dd" + // [4096,4097)
		"1fff0001" + "ee" // [8191,8192)
	if got := hex.EncodeToString(sink.buf); got != want {
		t.Fatalf("delta record layout changed:\n got %s\nwant %s", got, want)
	}

	b := NewMemBackend()
	if _, err := b.Allocate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := b.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	info, err := ReplayWAL(b, sink)
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltasApplied != 1 || info.PagesApplied != 1 || info.PagesRepaired != 0 {
		t.Fatalf("replay of one delta: %+v", info)
	}
	got := make([]byte, PageSize)
	if err := b.ReadPage(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("delta applied onto the backend page does not reproduce the page")
	}
}

// TestWALDeltaEdgeCases covers what the sweep decides per frame: no
// record for an unchanged page, a full image past half a page, a full
// image without a base.
func TestWALDeltaEdgeCases(t *testing.T) {
	w := NewWAL(NewMemWALSink(), 0, 0)
	base := walPage(0x11)
	same := walPage(0x11)
	if staged, _, err := w.stagePage(1, base, same); err != nil || staged {
		t.Fatalf("unchanged page staged a record (staged=%v err=%v)", staged, err)
	}
	if len(w.buf) != 0 {
		t.Fatalf("unchanged page left %d bytes in the batch", len(w.buf))
	}
	big := walPage(0x11)
	for i := 0; i < walMaxDeltaBytes; i++ {
		big[i] = 0x22
	}
	if staged, full, _ := w.stagePage(1, base, big); !staged || !full {
		t.Fatalf("oversized delta: staged=%v full=%v, want a full image", staged, full)
	}
	half := walPage(0x11)
	for i := 0; i < walMaxDeltaBytes-walRangeHeader; i++ {
		half[i] = 0x22
	}
	if staged, full, _ := w.stagePage(1, base, half); !staged || full {
		t.Fatalf("delta of exactly the cap: staged=%v full=%v, want a delta", staged, full)
	}
	if staged, full, _ := w.stagePage(1, nil, same); !staged || !full {
		t.Fatalf("no base: staged=%v full=%v, want a full image", staged, full)
	}
	var st Stats
	w.AddStats(&st)
	if st.WALPages != 3 || st.WALFullPages != 2 || st.WALDeltaBytes != int64(walHeaderSize+4+walMaxDeltaBytes) {
		t.Fatalf("stats after 2 full + 1 delta: %+v", st)
	}
}

// TestReplayRejectsMalformedDeltas: a delta whose ranges leave the page,
// overrun the payload, or are empty must end replay as a bad tail — the
// batch (commit record included) is not applied and the page keeps its
// bytes.
func TestReplayRejectsMalformedDeltas(t *testing.T) {
	u16 := func(v int) []byte { return binary.BigEndian.AppendUint16(nil, uint16(v)) }
	rng := func(off, n int, data ...byte) []byte {
		return append(append(u16(off), u16(n)...), data...)
	}
	pageID := []byte{0, 0, 0, 0}
	cases := map[string][]byte{
		"range past the page end":     append(pageID[:4:4], rng(PageSize-1, 2, 1, 2)...),
		"offset past the page":        append(pageID[:4:4], rng(PageSize, 1, 1)...),
		"length overruns the payload": append(pageID[:4:4], rng(10, 8, 1, 2, 3)...),
		"truncated range header":      append(pageID[:4:4], 0, 10, 0),
		"empty range":                 append(pageID[:4:4], rng(10, 0)...),
		"no ranges":                   pageID,
		"no page id":                  {0, 0},
		"page never created":          append([]byte{0, 0, 0, 9}, rng(0, 1, 1)...),
		"bad range after a good one":  append(pageID[:4:4], append(rng(0, 1, 0xFF), rng(PageSize-1, 2, 1, 2)...)...),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			b := NewMemBackend()
			if _, err := b.Allocate(); err != nil {
				t.Fatal(err)
			}
			want := walPage(0x5A)
			if err := b.WritePage(0, want); err != nil {
				t.Fatal(err)
			}
			log := frameWALRecord(walRecDelta, 1, payload)
			good := len(log)
			log = append(log, frameWALRecord(walRecCommit, 2, make([]byte, 8))...)
			sink := sinkWith(log)
			info, err := ReplayWAL(b, sink)
			if err != nil {
				t.Fatal(err)
			}
			if info.Records != 0 || info.Commits != 0 || info.PagesApplied != 0 || !info.TornTail {
				t.Fatalf("malformed delta was not rejected: %+v (record of %d bytes)", info, good)
			}
			got := make([]byte, PageSize)
			if err := b.ReadPage(0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("malformed delta modified the page")
			}
			if len(sink.buf) != 0 {
				t.Fatalf("rejected tail not truncated: %d bytes left", len(sink.buf))
			}
		})
	}
}

// TestReplayOldLogKindsOnly: a log holding only full images and commits
// (no delta records) replays unchanged.
func TestReplayOldLogKindsOnly(t *testing.T) {
	payload := append([]byte{0, 0, 0, 2}, walPage(0x77)...)
	log := frameWALRecord(walRecPage, 1, payload)
	log = append(log, frameWALRecord(walRecCommit, 2, make([]byte, 8))...)
	b := NewMemBackend()
	info, err := ReplayWAL(b, sinkWith(log))
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 1 || info.PagesApplied != 1 || info.DeltasApplied != 0 || info.TornTail {
		t.Fatalf("old-format log: %+v", info)
	}
	checkReplayedState(t, "old-format log", b, map[PageID]byte{2: 0x77})
}

// TestCommitRecordIsTheTxnID: a commit record's payload is exactly the
// 8-byte transaction id, and replay ends at a commit record of any other
// length (the retired format carried a dictionary snapshot after the id)
// without applying its batch.
func TestCommitRecordIsTheTxnID(t *testing.T) {
	sink := NewMemWALSink()
	w := NewWAL(sink, 0, 0)
	if err := w.AppendCommit(42); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.buf); got != walHeaderSize+8 {
		t.Fatalf("commit record is %d bytes, want header + 8", got)
	}
	payload := append([]byte{0, 0, 0, 2}, walPage(0x77)...)
	log := frameWALRecord(walRecPage, 1, payload)
	log = append(log, frameWALRecord(walRecCommit, 2, make([]byte, 12))...)
	b := NewMemBackend()
	info, err := ReplayWAL(b, sinkWith(log))
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 0 || info.PagesApplied != 0 || !info.TornTail || info.DiscardedPages != 1 {
		t.Fatalf("12-byte commit record: %+v", info)
	}
}

// ---------------------------------------------------------------------------
// Commit sweep

// sweepRig is a no-steal pool plus log with n committed, imaged pages.
func sweepRig(t testing.TB, n int) (*Pager, *WAL, []PageID) {
	t.Helper()
	return sweepRigOn(t, NewMemWALSink(), n)
}

func sweepRigOn(t testing.TB, sink WALSink, n int) (*Pager, *WAL, []PageID) {
	t.Helper()
	p := NewPager(NewMemBackend(), 64)
	p.SetNoSteal(true)
	w := NewWAL(sink, 0, 0)
	var ids []PageID
	for i := 0; i < n; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, pg.ID)
		p.Unpin(pg, true)
	}
	if got := commitDeltas(t, p, w, 0); got != n {
		t.Fatalf("first sweep staged %d records, want %d", got, n)
	}
	return p, w, ids
}

func writePage(t testing.TB, p *Pager, owner int64, undo bool, id PageID, off int, b byte) {
	t.Helper()
	restore := p.PushWriter(owner, undo)
	defer restore()
	pg, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.WillWrite(pg)
	pg.Data[off] = b
	p.Unpin(pg, true)
}

// TestSweepSkipsRestoredFrame: a frame a rollback restored byte for byte
// costs the next unrelated commit nothing, and leaves the unlogged state
// so later sweeps do not diff it again.
func TestSweepSkipsRestoredFrame(t *testing.T) {
	p, w, ids := sweepRig(t, 2)
	a, b := ids[0], ids[1]

	writePage(t, p, 1, false, a, 100, 0xFF) // txn 1 dirties a ...
	writePage(t, p, 1, true, a, 100, 0x00)  // ... and rolls back
	p.ReleaseOwner(1)
	writePage(t, p, 2, false, b, 200, 0xEE) // unrelated txn 2

	var before, after Stats
	w.AddStats(&before)
	if n := commitDeltas(t, p, w, 2); n != 1 {
		t.Fatalf("commit staged %d page records, want 1 (the restored page must emit nothing)", n)
	}
	w.AddStats(&after)
	if got := after.WALPages - before.WALPages; got != 1 {
		t.Fatalf("WALPages grew by %d, want 1", got)
	}
	if after.WALFullPages != before.WALFullPages {
		t.Fatal("a delta-eligible page was logged as a full image")
	}
	pg, _ := p.Fetch(a)
	if !pg.logged || pg.base != nil {
		t.Fatalf("restored frame still pending: logged=%v base=%v", pg.logged, pg.base != nil)
	}
	p.Unpin(pg, false)
	if n := commitDeltas(t, p, w, 3); n != 0 {
		t.Fatalf("second sweep staged %d records, want 0", n)
	}
}

// TestSweepKeepsBaseAcrossRollback: the base is the last logged state,
// not what a later transaction found. A rollback that restores the page
// only logically leaves an orphan whose base must survive until a commit
// sweeps it — including through another writer taking the orphan over.
func TestSweepKeepsBaseAcrossRollback(t *testing.T) {
	p, w, ids := sweepRig(t, 1)
	a := ids[0]
	writePage(t, p, 1, false, a, 100, 0xFF)
	writePage(t, p, 1, true, a, 100, 0x00) // undo the change ...
	writePage(t, p, 1, true, a, 900, 0x42) // ... but not byte for byte
	p.ReleaseOwner(1)
	writePage(t, p, 2, false, a, 300, 0x07) // txn 2 builds on the orphan

	if got := p.PagesOwnedBy(2); len(got) != 1 || got[0] != a {
		t.Fatalf("PagesOwnedBy(2) = %v, want [%d]", got, a)
	}
	if got := p.OwnedPages(); len(got) != 1 || got[0] != a {
		t.Fatalf("OwnedPages = %v, want [%d]", got, a)
	}
	// An unrelated commit must leave txn 2's frame — base included — alone.
	if n := commitDeltas(t, p, w, 3); n != 0 {
		t.Fatalf("txn 3 logged %d of txn 2's frames", n)
	}
	if n := commitDeltas(t, p, w, 2); n != 1 {
		t.Fatalf("txn 2 staged %d records, want 1", n)
	}
	if got := p.OwnedPages(); len(got) != 0 {
		t.Fatalf("OwnedPages after commit = %v", got)
	}

	b := NewMemBackend()
	info, err := ReplayWAL(b, sinkWith(w.sink.(*MemWALSink).buf))
	if err != nil {
		t.Fatal(err)
	}
	if info.DeltasApplied != 1 {
		t.Fatalf("replay: %+v, want one delta", info)
	}
	got := make([]byte, PageSize)
	if err := b.ReadPage(a, got); err != nil {
		t.Fatal(err)
	}
	pg, _ := p.Fetch(a)
	defer p.Unpin(pg, false)
	if !bytes.Equal(got, pg.Data) {
		t.Fatal("replayed page differs from the frame: the delta was cut against the wrong base")
	}
}

// TestCheckpointRestartsImages: FlushAll clears the imaged flag, so the
// first record after the checkpoint truncated the log is a full image
// again, and an evicted-then-refetched frame starts unflagged too.
func TestCheckpointRestartsImages(t *testing.T) {
	p, w, ids := sweepRig(t, 1)
	a := ids[0]
	writePage(t, p, 1, false, a, 10, 1)
	var s0, s1, s2 Stats
	w.AddStats(&s0)
	commitDeltas(t, p, w, 1)
	w.AddStats(&s1)
	if s1.WALFullPages != s0.WALFullPages || s1.WALPages != s0.WALPages+1 {
		t.Fatalf("second touch was not a delta: %+v -> %+v", s0, s1)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	writePage(t, p, 2, false, a, 10, 2)
	commitDeltas(t, p, w, 2)
	w.AddStats(&s2)
	if s2.WALFullPages != s1.WALFullPages+1 {
		t.Fatalf("first touch after the checkpoint was not a full image: %+v -> %+v", s1, s2)
	}
}

// TestSweepRequiresNoSteal: write-set lists exist only under no-steal,
// so a sweep over a steal pool must fail loudly, not log nothing.
func TestSweepRequiresNoSteal(t *testing.T) {
	p := NewPager(NewMemBackend(), 8)
	if _, err := p.AppendUnloggedFor(NewWAL(NewMemWALSink(), 0, 0), 1); err == nil {
		t.Fatal("sweep over a steal pool succeeded")
	}
}

// TestWALBatchIsOneAppend: a commit batch — page records and commit
// record — reaches the sink in a single Append, while a batch far past
// walBatchFlushBytes streams out in chunks.
func TestWALBatchIsOneAppend(t *testing.T) {
	p, w, ids := sweepRig(t, 3)
	cs := &countingSink{WALSink: w.sink}
	w.sink = cs
	for i, id := range ids {
		writePage(t, p, 1, false, id, 50+i, 9)
	}
	if n := commitDeltas(t, p, w, 1); n != 3 {
		t.Fatalf("staged %d records, want 3", n)
	}
	if cs.appends != 1 {
		t.Fatalf("commit batch took %d sink appends, want 1", cs.appends)
	}
	cs.appends = 0
	pages := 2*walBatchFlushBytes/PageSize + 1
	for i := 0; i < pages; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, true)
	}
	commitDeltas(t, p, w, 0)
	if cs.appends < 2 || cs.appends > 4 {
		t.Fatalf("bulk batch of %d images took %d sink appends, want it chunked", pages, cs.appends)
	}
	if cap(w.buf) > 4*walBatchFlushBytes {
		t.Fatalf("batch buffer kept %d bytes", cap(w.buf))
	}
}

// TestSegmentedDeltaStraddlesBoundary: a delta record far smaller than a
// page image still spans segments when segments are tiny; replay must
// reassemble it, and a log cut at the boundary inside it must replay to
// the state before its batch.
func TestSegmentedDeltaStraddlesBoundary(t *testing.T) {
	const segCap = 48
	sink := NewMemSegmentedSink(segCap)
	p, w, ids := sweepRigOn(t, sink, 1)
	a := ids[0]
	before, _ := sink.Contents()
	for off := 1000; off < 1040; off++ {
		writePage(t, p, 1, false, a, off, 0xC3)
	}
	if n := commitDeltas(t, p, w, 1); n != 1 {
		t.Fatalf("staged %d records, want 1", n)
	}
	log, _ := sink.Contents()
	recs := parseWALRecords(t, log)
	delta := recs[len(recs)-2]
	if delta.kind != walRecDelta || delta.off != len(before) {
		t.Fatalf("expected a delta record at %d, got kind %d at %d", len(before), delta.kind, delta.off)
	}
	boundary := (delta.off/segCap + 1) * segCap
	if boundary >= delta.end {
		t.Fatalf("delta record [%d,%d) does not straddle a %d-byte segment boundary", delta.off, delta.end, segCap)
	}

	want := make([]byte, PageSize)
	for off := 1000; off < 1040; off++ {
		want[off] = 0xC3
	}
	b := NewMemBackend()
	info, err := ReplayWAL(b, sink)
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 2 || info.DeltasApplied != 1 || info.TornTail {
		t.Fatalf("replay across the boundary: %+v", info)
	}
	got := make([]byte, PageSize)
	if err := b.ReadPage(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page not rebuilt from image + straddling delta")
	}

	// Power fails with only the first segment of the delta durable.
	torn := NewMemSegmentedSink(segCap)
	if err := torn.Append(log[:boundary]); err != nil {
		t.Fatal(err)
	}
	b = NewMemBackend()
	info, err = ReplayWAL(b, torn)
	if err != nil {
		t.Fatal(err)
	}
	if info.Commits != 1 || info.DeltasApplied != 0 || !info.TornTail || info.IntactBytes != int64(len(before)) {
		t.Fatalf("replay of a delta torn at the boundary: %+v", info)
	}
	if err := b.ReadPage(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("torn delta leaked into the page")
	}
}

type countingSink struct {
	WALSink
	appends int
}

func (c *countingSink) Append(p []byte) error {
	c.appends++
	return c.WALSink.Append(p)
}

// ---------------------------------------------------------------------------
// Fuzz

// FuzzReplayWAL: arbitrary log bytes never panic replay and never apply a
// batch without its commit record. The first byte picks the mode: raw
// bytes as the log, or a script of (kind, length, payload) the harness
// frames with valid lengths, checksums and sequence numbers so the fuzzer
// reaches the payload parsers.
func FuzzReplayWAL(f *testing.F) {
	// Seeds: a real log (image, delta, commit), and scripts of each kind.
	p, w, ids := sweepRig(f, 2)
	writePage(f, p, 1, false, ids[0], 77, 7)
	commitDeltas(f, p, w, 1)
	f.Add(append([]byte{0}, w.sink.(*MemWALSink).buf...))
	f.Add([]byte{1, walRecDelta, 0, 9, 0, 0, 0, 1, 0, 5, 0, 1, 0xAB, walRecCommit, 0, 12, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{1, walRecDelta, 0, 8, 0, 0, 0, 1, 0x1F, 0xFF, 0, 2, walRecCommit, 0, 12})
	f.Add([]byte{1, walRecPage, 0, 4, 0, 0, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var log []byte
		lastCommitEnd := 0
		if data[0]&1 == 0 {
			log = data[1:]
		} else {
			seq := uint64(0)
			for r := data[1:]; len(r) >= 3; {
				kind, n := r[0]%4, int(binary.BigEndian.Uint16(r[1:3]))
				r = r[3:]
				if n > len(r) {
					n = len(r)
				}
				payload := append([]byte(nil), r[:n]...)
				r = r[n:]
				if kind != walRecCommit && len(payload) >= 4 {
					// Replay extends the page space to whatever page id a
					// committed image names; keep that to a few pages.
					payload[0], payload[1], payload[2], payload[3] = 0, 0, 0, payload[3]%8
				}
				if kind == walRecPage && len(payload) >= 4 {
					// A full image is too long to fuzz byte by byte: stretch
					// the payload's tail into one.
					img := make([]byte, 4+PageSize)
					copy(img, payload[:4])
					for i := range img[4:] {
						img[4+i] = payload[len(payload)-1]
					}
					payload = img
				}
				seq++
				log = append(log, frameWALRecord(kind, seq, payload)...)
				if kind == walRecCommit {
					lastCommitEnd = len(log)
				}
			}
		}

		fresh := func() *MemBackend {
			b := NewMemBackend()
			for i := 0; i < 4; i++ {
				if _, err := b.Allocate(); err != nil {
					t.Fatal(err)
				}
				if err := b.WritePage(PageID(i), walPage(byte(0x10+i))); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}
		b := fresh()
		info, err := ReplayWAL(b, sinkWith(log))
		if err != nil {
			t.Fatalf("replay over memory media failed: %v", err)
		}
		if info.Commits == 0 {
			requireSameBackend(t, "no commit applied", b, fresh())
		}
		if data[0]&1 == 1 {
			// Whatever follows the last commit record must have no effect.
			cut := fresh()
			if _, err := ReplayWAL(cut, sinkWith(log[:lastCommitEnd])); err != nil {
				t.Fatal(err)
			}
			requireSameBackend(t, "records after the last commit", b, cut)
		}
	})
}
