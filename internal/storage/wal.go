package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/obs"
)

// Write-ahead redo log. The engine's durability story is redo-only,
// physical logging with a no-steal buffer pool:
//
//   - While a transaction runs, its changes live only in buffer-pool
//     frames (the pool never evicts dirty frames while a WAL is
//     attached, so uncommitted data cannot reach the page file).
//   - At commit, every page the transaction dirtied is logged — the
//     first time since the last checkpoint as a full image, afterwards
//     as the byte ranges that differ from what the log last recorded for
//     that page — followed by a commit record, and the log is fsynced
//     before the commit is acknowledged.
//   - At checkpoint, dirty pages are written to the page file, the file
//     is fsynced, and only then is the WAL truncated.
//
// Recovery replays the log front to back: page records accumulate in a
// pending set (a delta is applied onto the batch's pending image, or
// onto the page file's copy when the batch has none) and reach the page
// file only when their commit record does, so a transaction whose
// commit record never made it to disk disappears entirely. Every record
// carries a CRC32-C checksum and a strictly increasing sequence number;
// the first record that fails either check ends replay — a torn append
// at the log tail (the classic power-loss artifact) is thereby ignored
// rather than misapplied.
//
// The first-touch full image is what keeps a torn checkpoint repairable:
// a checkpoint only writes pages dirtied since the previous one, each of
// those has a full image earlier in the same log, and replay rebuilds
// the page from that image plus its deltas whatever the tear left in the
// page file.

// WALSink is the append-only byte store underneath the WAL. It is
// deliberately minimal so fault-injection wrappers can model power loss
// (discarding appended-but-unsynced bytes) and torn appends.
type WALSink interface {
	// Append adds p at the current end of the log.
	Append(p []byte) error
	// Sync makes all appended bytes durable.
	Sync() error
	// Contents returns the entire durable+appended log image. It is
	// called once, at recovery, before any Append.
	Contents() ([]byte, error)
	// Truncate discards every byte at offset n and beyond and makes the
	// truncation durable. Recovery uses it to cut a torn tail back to the
	// intact record prefix (so later appends stay readable), and the
	// engine uses it to discard a suspect tail after a failed append or
	// sync (so an unacknowledged commit record can never replay).
	Truncate(n int64) error
	// Reset discards the whole log (after a checkpoint made it
	// redundant) and makes the truncation durable.
	Reset() error
	// Close releases sink resources.
	Close() error
}

// MemWALSink is a flat in-memory log for test harnesses (fault wrappers
// give it power-loss semantics).
type MemWALSink struct {
	buf []byte
}

// NewMemWALSink returns an empty in-memory WAL sink.
func NewMemWALSink() *MemWALSink { return &MemWALSink{} }

// Append implements WALSink.
func (m *MemWALSink) Append(p []byte) error {
	m.buf = append(m.buf, p...)
	return nil
}

// Sync implements WALSink.
func (m *MemWALSink) Sync() error { return nil }

// Contents implements WALSink.
func (m *MemWALSink) Contents() ([]byte, error) {
	return append([]byte(nil), m.buf...), nil
}

// Truncate implements WALSink.
func (m *MemWALSink) Truncate(n int64) error {
	if n < 0 || n > int64(len(m.buf)) {
		return fmt.Errorf("storage: wal truncate to %d outside log of %d bytes", n, len(m.buf))
	}
	m.buf = m.buf[:n]
	return nil
}

// Reset implements WALSink.
func (m *MemWALSink) Reset() error {
	m.buf = m.buf[:0]
	return nil
}

// Close implements WALSink.
func (m *MemWALSink) Close() error { return nil }

// Record kinds.
const (
	walRecPage   = 1 // payload: page id (4) + page image (PageSize)
	walRecCommit = 2 // payload: txn id (8)
	walRecDelta  = 3 // payload: page id (4) + n × (offset u16, length u16, bytes)
)

const (
	// walRangeHeader is the per-range overhead of a delta record; two
	// differing runs closer together than this are cheaper logged as one.
	walRangeHeader = 4
	// walMaxDeltaBytes caps a delta's ranges at half a page: past that a
	// full image costs at most twice as much and restarts the page's
	// delta chain.
	walMaxDeltaBytes = PageSize / 2
	// walBatchFlushBytes bounds the batch buffer: a commit batch normally
	// reaches the sink in one Append, but a bulk load's thousands of
	// first-touch images stream out in chunks of this size instead of
	// being held in memory whole.
	walBatchFlushBytes = 256 << 10
)

// walHeaderSize is the fixed per-record header: payload length (4),
// CRC32-C over kind+seq+payload (4), kind (1), sequence number (8).
const walHeaderSize = 4 + 4 + 1 + 8

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL appends checksummed redo records to a sink, with group commit:
// appends are serialized by the caller (the engine's walMu — the short
// "append mutex" committers hold only while copying their batch into the
// log), while Sync/SyncShared run a leader/follower protocol so that
// concurrent committers share one fsync. Internal cursor state is
// guarded by gmu so the sync path can run concurrently with appends.
type WAL struct {
	sink WALSink

	// gmu guards the log cursor (seq/size), the durability horizon
	// (synced/syncedSeq), and the group-commit epoch state below. It is
	// held only for bookkeeping — never across the sink fsync, which is
	// what lets appenders make progress while a leader's fsync is in
	// flight.
	gmu      sync.Mutex
	syncDone *sync.Cond // broadcast when a sync epoch completes or fails

	// seq/size are the sequence number and byte length of the log
	// including every append so far; synced/syncedSeq are their values at
	// the last successful sync. TruncateToSynced cuts the log back to the
	// synced point after a failed append or sync, so records whose
	// durability is unknown can never be replayed.
	seq       uint64
	size      int64
	synced    int64
	syncedSeq uint64

	// syncing marks a leader's fsync in flight; followers wait on
	// syncDone. syncErr poisons the WAL after a failed sync: every
	// committer in (or after) the failed batch gets the error, because
	// none of their records are known durable. unsyncedCommits counts
	// commit records appended since the last epoch began — the size of
	// the batch the next leader's fsync will cover.
	syncing         bool
	syncErr         error
	unsyncedCommits int64

	// buf is the batch under construction: records are encoded in place
	// (header, payload, CRC) and handed to the sink in one Append when the
	// batch's commit record is staged. bufSeq is the sequence number of
	// the last staged record, bufCommits the commit records staged. All
	// three belong to the appender — callers serialize appends, and
	// TruncateToSynced/Reset against them — so only flush, which
	// publishes the new cursor, takes gmu.
	buf        []byte
	bufSeq     uint64
	bufCommits int64

	// Cumulative log-traffic counters, folded into storage.Stats by
	// AddStats. Atomic (obs.Counter) because snapshots race with the
	// append path: appends run under the engine's walMu, but AddStats is
	// called by any session reading DB.PagerStats or DB.Metrics.
	recs       obs.Counter
	pages      obs.Counter // page records, full or delta
	fullPages  obs.Counter // full-image page records
	deltaBytes obs.Counter // bytes of delta records, headers included
	commits    obs.Counter
	bytes      obs.Counter
	syncs      obs.Counter
	// grouped counts commit records made durable through sync epochs;
	// grouped/syncs is the commits-per-fsync ratio.
	grouped obs.Counter

	// waits/flight, when set, receive SyncShared blocked time
	// (WaitWALGroupFsync) and one EvGroupFsync flight event per covering
	// fsync epoch. Written once at wiring time (SetObs), before
	// concurrent use; nil is safe.
	waits  *obs.WaitStats
	flight *obs.FlightRecorder
}

// NewWAL returns a WAL writer over sink, continuing after the given
// sequence number and byte length (both 0 for a fresh or truncated log;
// recovery passes RecoveryInfo.LastSeq and RecoveryInfo.IntactBytes).
func NewWAL(sink WALSink, lastSeq uint64, size int64) *WAL {
	w := &WAL{sink: sink, seq: lastSeq, size: size, synced: size, syncedSeq: lastSeq}
	w.syncDone = sync.NewCond(&w.gmu)
	return w
}

// SetObs routes group-commit blocked time into the engine wait table
// and fsync epochs into the flight recorder. Call once at wiring time,
// before concurrent use.
func (w *WAL) SetObs(waits *obs.WaitStats, flight *obs.FlightRecorder) {
	w.waits = waits
	w.flight = flight
}

// beginRecord reserves a record header at the end of the batch buffer and
// returns its offset; the caller appends the payload and calls endRecord.
func (w *WAL) beginRecord(kind byte) int {
	if len(w.buf) == 0 {
		w.gmu.Lock()
		w.bufSeq = w.seq
		w.gmu.Unlock()
	}
	start := len(w.buf)
	var hdr [walHeaderSize]byte
	hdr[8] = kind
	w.buf = append(w.buf, hdr[:]...)
	return start
}

// endRecord completes the record begun at start: payload length,
// sequence number, and the CRC over kind+seq+payload.
func (w *WAL) endRecord(start int) {
	rec := w.buf[start:]
	w.bufSeq++
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(rec)-walHeaderSize))
	binary.BigEndian.PutUint64(rec[9:17], w.bufSeq)
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], walCRC))
	w.recs.Inc()
	w.bytes.Add(int64(len(rec)))
}

// flush hands the staged batch to the sink in one Append and publishes
// the new log cursor. On failure the batch is dropped; the caller
// (the engine) poisons the WAL and truncates to the synced point.
func (w *WAL) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	w.gmu.Lock()
	err := w.sink.Append(w.buf)
	if err == nil {
		w.seq = w.bufSeq
		w.size += int64(len(w.buf))
		w.unsyncedCommits += w.bufCommits
	}
	w.gmu.Unlock()
	w.dropStaged()
	return err
}

// dropStaged empties the batch buffer. A buffer grown far past the flush
// threshold (one huge commit record) is released rather than kept.
func (w *WAL) dropStaged() {
	w.bufCommits = 0
	if cap(w.buf) > 4*walBatchFlushBytes {
		w.buf = nil
		return
	}
	w.buf = w.buf[:0]
}

// stagePage encodes one page record into the batch: the byte ranges
// where cur differs from base (the page as the log last recorded it)
// or, with no base or a delta past walMaxDeltaBytes, the full image. An
// unchanged page stages nothing. It reports whether a record was staged
// and whether that record was a full image. The batch buffer is flushed
// early when it passes walBatchFlushBytes.
func (w *WAL) stagePage(id PageID, base, cur []byte) (staged, full bool, err error) {
	start := w.beginRecord(walRecDelta)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(id))
	ranges := len(w.buf)
	full = base == nil
	if !full {
		var ok bool
		if w.buf, ok = appendPageDiff(w.buf, base, cur); !ok {
			full = true
		} else if len(w.buf) == ranges {
			w.buf = w.buf[:start]
			return false, false, nil
		}
	}
	if full {
		w.buf[start+8] = walRecPage
		w.buf = append(w.buf[:ranges], cur[:PageSize]...)
		w.fullPages.Inc()
	}
	w.endRecord(start)
	w.pages.Inc()
	if !full {
		w.deltaBytes.Add(int64(len(w.buf) - start))
	}
	if len(w.buf) >= walBatchFlushBytes {
		err = w.flush()
	}
	return true, full, err
}

// appendPageDiff appends to dst the byte ranges where cur differs from
// base as (offset u16, length u16, bytes) triples in ascending offset
// order. Differing runs separated by fewer equal bytes than a range
// header costs are merged. ok is false — and dst is returned unextended
// — when the ranges would exceed walMaxDeltaBytes.
func appendPageDiff(dst, base, cur []byte) (out []byte, ok bool) {
	base, cur = base[:PageSize], cur[:PageSize]
	mark := len(dst)
	for i := 0; ; {
		for i+8 <= PageSize && binary.LittleEndian.Uint64(base[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += 8
		}
		for i < PageSize && base[i] == cur[i] {
			i++
		}
		if i == PageSize {
			return dst, true
		}
		start, end := i, i+1 // end: one past the last differing byte seen
		for j := end; j < PageSize && j-end < walRangeHeader; j++ {
			if base[j] != cur[j] {
				end = j + 1
			}
		}
		if len(dst)-mark+walRangeHeader+end-start > walMaxDeltaBytes {
			return dst[:mark], false
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(start))
		dst = binary.BigEndian.AppendUint16(dst, uint16(end-start))
		dst = append(dst, cur[start:end]...)
		i = end
	}
}

// applyPageDelta applies a delta record's ranges to img. It validates
// the whole record first and reports false, touching nothing, when a
// range is empty, runs past the page, or overruns the payload.
func applyPageDelta(img, ranges []byte) bool {
	if len(ranges) == 0 {
		return false
	}
	for r := ranges; len(r) > 0; {
		if len(r) < walRangeHeader {
			return false
		}
		off := int(binary.BigEndian.Uint16(r[0:2]))
		n := int(binary.BigEndian.Uint16(r[2:4]))
		if n == 0 || off+n > PageSize || len(r)-walRangeHeader < n {
			return false
		}
		r = r[walRangeHeader+n:]
	}
	for r := ranges; len(r) > 0; {
		off := int(binary.BigEndian.Uint16(r[0:2]))
		n := int(binary.BigEndian.Uint16(r[2:4]))
		copy(img[off:off+n], r[walRangeHeader:walRangeHeader+n])
		r = r[walRangeHeader+n:]
	}
	return true
}

// LogSize returns the current log length in bytes — the durability
// target a committer passes to SyncShared after appending its batch.
func (w *WAL) LogSize() int64 {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	return w.size
}

// AddStats folds the WAL's cumulative traffic counters into s, so one
// storage.Stats snapshot covers page and log I/O together.
func (w *WAL) AddStats(s *Stats) {
	s.WALRecords += w.recs.Load()
	s.WALPages += w.pages.Load()
	s.WALFullPages += w.fullPages.Load()
	s.WALDeltaBytes += w.deltaBytes.Load()
	s.WALCommits += w.commits.Load()
	s.WALBytes += w.bytes.Load()
	s.WALSyncs += w.syncs.Load()
	s.WALGroupedCommits += w.grouped.Load()
}

// AppendPage logs the full image of one page as a batch of its own.
func (w *WAL) AppendPage(id PageID, data []byte) error {
	if _, _, err := w.stagePage(id, nil, data); err != nil {
		return err
	}
	return w.flush()
}

// AppendCommit stages a commit record carrying the transaction id and
// hands the whole batch — the page records the commit sweep staged plus
// this record — to the sink. Everything durable, the data dictionary
// included, lives in pages, so the record needs nothing else.
func (w *WAL) AppendCommit(txID int64) error {
	start := w.beginRecord(walRecCommit)
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(txID))
	w.endRecord(start)
	w.bufCommits++
	w.commits.Inc()
	return w.flush()
}

// Sync makes all appended records durable; a commit is acknowledged only
// after its Sync returns. It is the serial entry point to the group
// protocol: equivalent to SyncShared at the current log end.
func (w *WAL) Sync() error {
	w.gmu.Lock()
	target := w.size
	w.gmu.Unlock()
	return w.SyncShared(target)
}

// SyncShared makes the log durable at least up to target (a LogSize
// taken after the caller's batch was appended), sharing fsyncs between
// concurrent committers: the first committer to arrive while no sync is
// in flight becomes the leader and fsyncs everything appended so far;
// committers that arrive during that fsync wait for the epoch to finish
// and usually find their batch already covered (follower path — their
// commit cost no fsync of its own). A failed fsync poisons the whole
// batch: every waiter (and every later caller) gets the error, because
// none of their records are known durable; the engine then marks the
// WAL broken and truncates the suspect tail. A target the log no longer
// reaches (another committer's failure cut the batch) is an error too.
func (w *WAL) SyncShared(target int64) error {
	// The whole call is one WaitWALGroupFsync interval: a leader's time
	// is its fsync, a follower's is the wait for a covering epoch —
	// either way the committer was blocked on log durability.
	aw := w.waits.StartWait(obs.WaitWALGroupFsync)
	defer aw.Done()
	w.gmu.Lock()
	defer w.gmu.Unlock()
	for {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.synced >= target {
			return nil // covered by a leader's fsync (or already durable)
		}
		if w.size < target {
			// TruncateToSynced (another committer's failure) cut the
			// caller's batch: no fsync can make it durable any more.
			return fmt.Errorf("storage: wal truncated to %d bytes below commit target %d", w.size, target)
		}
		if !w.syncing {
			break // become the leader for the next epoch
		}
		w.syncDone.Wait()
	}
	w.syncing = true
	upTo, upToSeq := w.size, w.seq
	batch := w.unsyncedCommits
	w.unsyncedCommits = 0
	w.gmu.Unlock()
	fsyncStart := time.Now()
	err := w.sink.Sync() // the one shared fsync; no locks held
	fsyncNanos := time.Since(fsyncStart).Nanoseconds()
	w.gmu.Lock()
	w.syncing = false
	if err != nil {
		w.syncErr = err
		w.syncDone.Broadcast()
		return err
	}
	w.synced, w.syncedSeq = upTo, upToSeq
	w.syncs.Inc()
	if batch > 0 {
		w.grouped.Add(batch)
		w.flight.Record(obs.EvGroupFsync, batch, fsyncNanos, "")
	}
	w.syncDone.Broadcast()
	return nil
}

// TruncateToSynced discards every byte appended after the last
// successful sync. The engine calls it when an append or sync fails: the
// suspect tail — which may or may not have reached durable media — is
// cut off, so a commit record the client was never acknowledged for
// cannot be replayed as committed after reopening. An in-flight sync
// epoch is waited out first, so the truncation point reflects that
// epoch's outcome (a successful fsync keeps its batch; a failed one
// leaves the horizon where it was and the whole batch is cut).
// Idempotent. Callers must serialize against appends (the engine holds
// walMu).
func (w *WAL) TruncateToSynced() error {
	w.dropStaged() // a batch abandoned before its commit record
	w.gmu.Lock()
	defer w.gmu.Unlock()
	for w.syncing {
		w.syncDone.Wait()
	}
	if w.size == w.synced {
		return nil
	}
	if err := w.sink.Truncate(w.synced); err != nil {
		return err
	}
	w.size = w.synced
	w.seq = w.syncedSeq
	w.unsyncedCommits = 0
	return nil
}

// Reset truncates the log after a checkpoint made it redundant.
func (w *WAL) Reset() error {
	w.dropStaged()
	if err := w.sink.Reset(); err != nil {
		return err
	}
	w.gmu.Lock()
	w.seq, w.syncedSeq = 0, 0
	w.size, w.synced = 0, 0
	w.unsyncedCommits = 0
	w.gmu.Unlock()
	return nil
}

// Close closes the underlying sink.
func (w *WAL) Close() error { return w.sink.Close() }

// RecoveryInfo reports what WAL replay did.
type RecoveryInfo struct {
	// Records is the number of intact records read.
	Records int
	// Commits is the number of commit records applied.
	Commits int
	// PagesApplied counts pages written to the backend (one per page per
	// committed batch, however many records rebuilt it).
	PagesApplied int
	// DeltasApplied counts delta records folded into applied pages.
	DeltasApplied int
	// PagesRepaired counts applied full images whose prior backend
	// content differed from the logged image — torn or lost page writes
	// that the replay corrected.
	PagesRepaired int
	// TornTail is true when the log ended in a truncated or
	// checksum-corrupt record (ignored, as designed).
	TornTail bool
	// DiscardedPages counts pages of transactions whose commit record
	// never reached the log (their effects are dropped).
	DiscardedPages int
	// LastSeq is the sequence number of the last intact record; the WAL
	// writer continues after it until the post-recovery checkpoint
	// truncates the log.
	LastSeq uint64
	// IntactBytes is the byte length of the intact record prefix. When a
	// torn tail followed it, replay truncated the sink to this length, so
	// records appended after recovery are contiguous with readable ones
	// and a second replay can reach them.
	IntactBytes int64
}

// replayPage is one page of the batch being replayed: the image its
// records have built so far, and whether that image started from a full
// image in the log (else from the backend's copy, deltas applied on top).
type replayPage struct {
	img       []byte
	fromImage bool
	owned     bool // img is a private copy, not an alias into the log
	deltas    int
}

// ReplayWAL applies every committed page record in the log to the
// backend. A full image replaces the batch's pending image of its page;
// a delta is applied onto the pending image if the batch has one, else
// onto the backend page — which, by the time the delta's batch is
// replayed, holds everything earlier committed batches did to it. The
// backend is synced before return, so a crash during recovery just
// replays again (every delta has its page's full image earlier in the
// same log, so replaying twice is harmless). A torn, corrupt or
// malformed tail ends replay and is truncated off the sink, so
// everything appended afterwards — notably the post-recovery
// checkpoint's records — stays reachable by a later replay.
func ReplayWAL(b Backend, sink WALSink) (RecoveryInfo, error) {
	var info RecoveryInfo
	log, err := sink.Contents()
	if err != nil {
		return info, fmt.Errorf("storage: read wal: %w", err)
	}
	pending := make(map[PageID]*replayPage)
	pendingOrder := []PageID{}
	off := 0
scan:
	for off < len(log) {
		if len(log)-off < walHeaderSize {
			break
		}
		payloadLen := int(binary.BigEndian.Uint32(log[off : off+4]))
		if len(log)-off-walHeaderSize < payloadLen {
			break
		}
		rec := log[off : off+walHeaderSize+payloadLen]
		wantCRC := binary.BigEndian.Uint32(rec[4:8])
		if crc32.Checksum(rec[8:], walCRC) != wantCRC {
			break
		}
		kind := rec[8]
		seq := binary.BigEndian.Uint64(rec[9:17])
		if seq != info.LastSeq+1 {
			// A stale record from a previous log generation (or garbage
			// that happened to checksum); stop here.
			break
		}
		payload := rec[walHeaderSize:]
		switch kind {
		case walRecPage:
			if payloadLen != 4+PageSize {
				break scan
			}
			id := PageID(binary.BigEndian.Uint32(payload[0:4]))
			if _, ok := pending[id]; !ok {
				pendingOrder = append(pendingOrder, id)
			}
			pending[id] = &replayPage{img: payload[4 : 4+PageSize], fromImage: true}
		case walRecDelta:
			if payloadLen < 4 {
				break scan
			}
			id := PageID(binary.BigEndian.Uint32(payload[0:4]))
			pp := pending[id]
			if pp == nil {
				if id >= b.NumPages() {
					break scan // a delta for a page no image ever created
				}
				pp = &replayPage{img: make([]byte, PageSize), owned: true}
				if err := b.ReadPage(id, pp.img); err != nil {
					return info, fmt.Errorf("storage: wal replay read page %d: %w", id, err)
				}
				pending[id] = pp
				pendingOrder = append(pendingOrder, id)
			} else if !pp.owned {
				pp.img, pp.owned = append([]byte(nil), pp.img...), true
			}
			if !applyPageDelta(pp.img, payload[4:]) {
				break scan
			}
			pp.deltas++
		case walRecCommit:
			if payloadLen != 8 {
				break scan
			}
			if err := applyPending(b, pending, pendingOrder, &info); err != nil {
				return info, err
			}
			pending = make(map[PageID]*replayPage)
			pendingOrder = pendingOrder[:0]
			info.Commits++
		default:
			break scan
		}
		info.LastSeq = seq
		info.Records++
		off += walHeaderSize + payloadLen
	}
	info.TornTail = off < len(log)
	info.IntactBytes = int64(off)
	info.DiscardedPages = len(pending)
	if info.TornTail {
		if err := sink.Truncate(info.IntactBytes); err != nil {
			return info, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}
	if info.PagesApplied > 0 {
		if err := b.Sync(); err != nil {
			return info, fmt.Errorf("storage: sync after wal replay: %w", err)
		}
	}
	return info, nil
}

// applyPending writes one committed batch of pages to the backend,
// extending the page space as needed and counting repairs (full images
// whose on-disk bytes disagreed with them).
func applyPending(b Backend, pending map[PageID]*replayPage, order []PageID, info *RecoveryInfo) error {
	cur := make([]byte, PageSize)
	for _, id := range order {
		pp := pending[id]
		for b.NumPages() <= id {
			if _, err := b.Allocate(); err != nil {
				return fmt.Errorf("storage: wal replay allocate to page %d: %w", id, err)
			}
		}
		if pp.fromImage {
			if err := b.ReadPage(id, cur); err != nil {
				return fmt.Errorf("storage: wal replay read page %d: %w", id, err)
			}
			if !bytes.Equal(cur, pp.img) {
				info.PagesRepaired++
			}
		}
		if err := b.WritePage(id, pp.img); err != nil {
			return fmt.Errorf("storage: wal replay write page %d: %w", id, err)
		}
		info.PagesApplied++
		info.DeltasApplied += pp.deltas
	}
	return nil
}
