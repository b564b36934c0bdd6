// Package engine ties the substrates into a working database: it owns the
// pager, transaction and lock managers, catalog, LOB store and the
// extensible-indexing registry, and implements SQL execution — DDL
// (including the paper's CREATE OPERATOR / CREATE INDEXTYPE / domain
// CREATE INDEX), DML with implicit index maintenance (built-in indexes
// and ODCIIndex callbacks), and cost-based query planning that can choose
// a domain index scan and drive it as a pipelined row source.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/extidx"
	"repro/internal/loblib"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// Options configures Open.
type Options struct {
	// Path is the database file; empty means a fully in-memory database.
	Path string
	// CacheSizePages is the buffer-pool capacity (default 4096 pages,
	// i.e. 32 MiB).
	CacheSizePages int
	// Backend, when non-nil, overrides the page store (fault-injection
	// harnesses wrap a backend and pass it here; Path is then ignored for
	// the page space).
	Backend storage.Backend
	// WALSink, when non-nil, overrides the redo-log store. When nil, a
	// file database logs to the segment directory Path+".wal" and any
	// other database to an in-memory segmented log, which runs the same
	// commit path and simply does not outlive the process.
	WALSink storage.WALSink
	// CheckpointWALBytes is the WAL-growth threshold that triggers the
	// background checkpointer (<= 0 means DefaultCheckpointWALBytes).
	CheckpointWALBytes int64
	// CheckpointDirtyPages is the dirty-frame watermark that triggers the
	// background checkpointer (<= 0 derives it from the cache size:
	// max(3/4 of the cache, 1024)).
	CheckpointDirtyPages int64
	// DisableBackgroundCheckpointer keeps checkpointing purely
	// foreground (Open recovery, explicit Checkpoint calls, Close) —
	// crash harnesses use this to keep WAL op counts deterministic.
	DisableBackgroundCheckpointer bool
}

// DB is one database instance.
type DB struct {
	pager *storage.Pager
	txns  *txn.Manager
	locks *txn.LockManager
	cat   *catalog.Catalog
	reg   *extidx.Registry
	lobs  *loblib.LOBStore
	ws    *extidx.Workspace

	parseMu    sync.Mutex
	parseCache map[string]sql.Statement

	// DefaultFetchBatch is the maxRows passed to ODCIIndexFetch (and the
	// chunk size of domain scans): the paper's batch interface. Open sets
	// 64; E8 sweeps it.
	DefaultFetchBatch int

	// wal is the redo log every commit goes through. walMu serializes
	// commit-record appends and checkpoint truncation against each other.
	// walBroken is set after any failed log write: the log tail is then
	// suspect, so further commits are refused until the database is
	// reopened and recovers from the durable prefix. (The suspect tail
	// itself is truncated back to the last synced length at failure time,
	// so an unacknowledged commit record cannot replay as committed.)
	wal       *storage.WAL
	walMu     sync.Mutex
	walBroken bool
	recovery  storage.RecoveryInfo

	// ckpt is the background checkpointer (nil when disabled by options).
	// Set once in Open before any session exists; Close drains it before
	// checkpointing.
	ckpt *checkpointer

	// Write concurrency. Three layers replace the old single-writer gate:
	//
	//   - admission: an RWMutex taken shared by every DML write (from a
	//     transaction's first write statement until it finishes) and
	//     exclusively by DDL, which rewrites the dictionary chain and
	//     the catalog every statement plans against. Checkpoint TryLocks
	//     it exclusively (ErrTxnOpen when writers are open).
	//   - mutMu: the mutation window. Page content is mutated only while
	//     holding it — write statement bodies, undo replay, and the
	//     commit sweep (AppendUnloggedFor + commit-record append) — so a
	//     sweep can never read a page another statement is half-way
	//     through modifying. The commit fsync runs OUTSIDE the window:
	//     that is what lets concurrent committers reach the WAL's
	//     group-commit protocol and share fsyncs. Re-entrant per
	//     transaction (mutOwner/mutDepth, guarded by mutStateMu):
	//     callback sessions and statement-level rollback nest inside
	//     their statement's window.
	//   - per-frame ownership in the pager (Page.owner): the window
	//     attributes dirtied frames to its transaction, the commit sweep
	//     logs only the committing transaction's frames (plus orphans),
	//     and a statement that dirties another uncommitted transaction's
	//     frame aborts with storage.ErrWriteConflict (first dirtier
	//     wins).
	//
	// The intended global acquisition order — admission first, then
	// table locks, the mutation window, the WAL append mutex, the pager
	// shard latches, the WAL group state, the log segments, backends
	// last — is declared below; the lockorder analyzer checks every
	// observed acquisition path against it and reports any cycle in the
	// whole-program lock graph. (Table locks are LockManager locals,
	// deadlock-free by sorted acquisition, and out of the analyzer's
	// scope; so are same-identity shard latches, which the pager only
	// nests in ascending shard order for consistent-cut snapshots.)
	//
	//vetx:lockorder engine.DB.admission < engine.DB.mutMu
	//vetx:lockorder engine.DB.mutMu < engine.DB.mutStateMu
	//vetx:lockorder engine.DB.mutMu < engine.DB.walMu
	//vetx:lockorder engine.DB.walMu < storage.WAL.gmu
	//vetx:lockorder engine.DB.walMu < storage.pagerShard.mu
	//vetx:lockorder storage.pagerShard.mu < storage.WAL.gmu
	//vetx:lockorder storage.pagerShard.mu < storage.Pager.conflictMu
	//vetx:lockorder storage.pagerShard.mu < storage.MemBackend.mu
	//vetx:lockorder storage.Pager.allocMu < storage.FileBackend.mu
	//vetx:lockorder storage.Pager.allocMu < storage.MemBackend.mu
	//vetx:lockorder storage.WAL.gmu < storage.SegmentedSink.mu
	//vetx:lockorder storage.SegmentedSink.mu < storage.memSegMedium.mu
	//vetx:lockorder storage.SegmentedSink.mu < storage.memSegSlot.mu
	admission  sync.RWMutex
	mutMu      sync.Mutex // the mutation window
	mutStateMu sync.Mutex // guards mutOwner/mutDepth
	mutOwner   int64      // txn holding the window (valid when mutDepth > 0)
	mutDepth   int        // re-entry depth of the window

	// Observability aggregates (see metrics.go). planner counts costed
	// plans and chosen path kinds; odci counts and times every callback
	// crossing the ODCI boundary (the registry's instrumented wrappers
	// feed it). The engine-level counters below are plain obs.Counters so
	// the untraced query path pays a handful of atomic adds and nothing
	// else.
	planner obs.PlannerStats
	odci    obs.ODCIStats

	// execStats aggregates parallel-execution activity: exchanges
	// started, morsels dispatched to workers, cumulative worker busy
	// time. Exchange operators feed it from worker goroutines (the
	// counters are atomic).
	execStats obs.ExecStats

	selects       obs.Counter // SELECTs executed (any session)
	tracedQueries obs.Counter // SELECTs run with a QueryTrace attached
	slowQueries   obs.Counter // traces handed to the slow-query hook

	// waits is the wait-event table: every blocking point — admission,
	// the mutation window, the WAL append mutex and group fsync, the
	// pager latch, table locks, exchange handoffs, the ODCI boundary —
	// records its blocked intervals here per class. conflicts counts
	// write-conflict aborts per table. flight is the always-on ring of
	// recent engine events (commits, group fsyncs, checkpoints,
	// conflicts, slow waits, DDL), dumped by the slow-query hook and
	// LeakCheck failures.
	waits     obs.WaitStats
	conflicts obs.ConflictStats
	flight    *obs.FlightRecorder

	// hookCfg holds the slow-query hook; atomic so the per-SELECT check
	// is a single pointer load when no hook is installed.
	hookCfg atomic.Pointer[slowHookCfg]
}

// slowHookCfg pairs the slow-query threshold with its callback.
type slowHookCfg struct {
	threshold time.Duration
	fn        func(*obs.QueryTrace)
}

// slowWaitThreshold is the blocked-time bound past which a wait also
// lands in the flight recorder as an EvSlowWait event. 10ms is an
// eternity for an in-memory lock and on the order of one slow fsync —
// long enough that ordinary contention stays out of the ring.
const slowWaitThreshold = 10 * time.Millisecond

// flightTailEvents is how many trailing flight-recorder events ride
// along with slow-query traces and LeakCheck failures.
const flightTailEvents = 16

// ErrWALBroken is returned by commits after a write-ahead-log write has
// failed; reopen the database to recover.
var ErrWALBroken = errors.New("engine: write-ahead log failed; reopen to recover")

// ErrTxnOpen is returned by Checkpoint (and therefore Close) when a
// write transaction is still open: flushing its uncommitted pages would
// durably commit them with no undo, so the checkpoint is refused.
var ErrTxnOpen = errors.New("engine: checkpoint refused: a write transaction is open")

// admitAcquire takes the admission lock in the requested mode, recording
// the acquisition (and its blocked time) as a wait event. Every
// acquisition is recorded, not just contended ones: the class count is
// the admission count the metrics report, and an uncontended Lock adds
// only the timing overhead to a path that is about to take a lock
// anyway.
func (db *DB) admitAcquire(exclusive bool) {
	class := obs.WaitAdmissionShared
	if exclusive {
		class = obs.WaitAdmissionExclusive
	}
	aw := db.waits.StartWait(class)
	if exclusive {
		db.admission.Lock()
	} else {
		db.admission.RLock()
	}
	aw.Done()
}

// admitRelease undoes one admitAcquire (a statement-scoped autocommit
// grant, or a transaction's grant when it finishes) and then pokes the
// background checkpointer. The poke must follow the release: a writer's
// commit may have pushed the log or the dirty-frame count over a
// threshold, or a checkpoint may have been refused while this writer
// was admitted, and a checkpointer woken while admission is still held
// only fails its TryLock and waits for a poke that never comes.
func (db *DB) admitRelease(exclusive bool) {
	if exclusive {
		db.admission.Unlock()
	} else {
		db.admission.RUnlock()
	}
	if db.ckpt != nil {
		db.ckpt.poke(false)
	}
}

// enterMutation opens (or re-enters) the mutation window for txID: the
// exclusive section in which page content may be mutated — statement
// bodies, undo replay, and the commit sweep. Frames dirtied inside the
// window are attributed to txID by the pager (undo mode leaves
// attribution untouched). The window deliberately excludes the commit
// fsync, so committers serialize only their in-memory work and share
// fsyncs through the WAL's group protocol. Re-entrant per transaction:
// callback sessions (same txn) and rollback inside a failing statement
// nest. Returns the paired exit.
func (db *DB) enterMutation(txID int64, undo bool) (exit func()) {
	db.mutStateMu.Lock()
	if db.mutDepth > 0 && db.mutOwner == txID {
		db.mutDepth++
		db.mutStateMu.Unlock()
		restore := db.pager.PushWriter(txID, undo)
		return func() {
			restore()
			db.mutStateMu.Lock()
			db.mutDepth--
			db.mutStateMu.Unlock()
		}
	}
	db.mutStateMu.Unlock()
	aw := db.waits.StartWait(obs.WaitMutationWindow)
	db.mutMu.Lock()
	aw.Done()
	db.mutStateMu.Lock()
	db.mutOwner, db.mutDepth = txID, 1
	db.mutStateMu.Unlock()
	restore := db.pager.PushWriter(txID, undo)
	return func() {
		restore()
		db.mutStateMu.Lock()
		db.mutDepth = 0
		db.mutStateMu.Unlock()
		db.mutMu.Unlock()
	}
}

// RecoveryInfo reports what WAL replay did during Open (zero value when
// the log was empty).
func (db *DB) RecoveryInfo() storage.RecoveryInfo { return db.recovery }

// Open creates or opens a database. Every database is governed by a WAL
// (see Options.WALSink for where it lives): Open first refuses a page
// file of another format, then replays the log — applying every
// committed transaction's page images to the backend and discarding
// uncommitted ones — then reads the dictionary from its pages, and
// checkpoints and truncates the log, so a crash during recovery simply
// replays again.
func Open(opts Options) (*DB, error) {
	backend := opts.Backend
	if backend == nil {
		if opts.Path == "" {
			backend = storage.NewMemBackend()
		} else {
			fb, err := storage.OpenFileBackend(opts.Path)
			if err != nil {
				return nil, err
			}
			backend = fb
		}
	}
	sink := opts.WALSink
	if sink == nil {
		if opts.Path != "" && opts.Backend == nil {
			// The default file log is a directory of fixed-size recycled
			// segments; a checkpoint retires segments back into the pool
			// instead of growing one append-only file.
			fs, err := storage.OpenFileSegmentedSink(opts.Path+".wal", storage.DefaultWALSegmentBytes)
			if err != nil {
				return nil, err
			}
			sink = fs
		} else {
			sink = storage.NewMemSegmentedSink(storage.DefaultWALSegmentBytes)
		}
	}
	if err := checkFormat(backend); err != nil {
		return nil, err
	}
	recovery, err := storage.ReplayWAL(backend, sink)
	if err != nil {
		return nil, fmt.Errorf("engine: wal recovery: %w", err)
	}
	cache := opts.CacheSizePages
	if cache <= 0 {
		cache = 4096
	}
	pager := storage.NewPager(backend, cache)
	db := &DB{
		pager:             pager,
		txns:              txn.NewManager(),
		locks:             txn.NewLockManager(),
		cat:               catalog.New(),
		reg:               extidx.NewRegistry(),
		lobs:              loblib.NewLOBStore(pager),
		ws:                extidx.NewWorkspace(),
		parseCache:        make(map[string]sql.Statement),
		DefaultFetchBatch: 64,
		recovery:          recovery,
	}
	// Every IndexMethods/StatsMethods resolve from here on hands out an
	// instrumented wrapper feeding the per-callback counters.
	db.reg.SetObserver(&db.odci)
	// Wait-event and flight-recorder wiring: every layer that can block
	// reports into the one table, and the recorder is always on (its
	// idle cost is one pointer's worth of state per DB). All of this
	// happens before any session exists, so the plain-field stores are
	// safe.
	db.flight = obs.NewFlightRecorder(obs.DefaultFlightSize)
	db.waits.SetSlowWaitThreshold(slowWaitThreshold)
	db.waits.AttachFlight(db.flight)
	db.odci.AttachWaits(&db.waits)
	pager.SetWaitStats(&db.waits)
	db.locks.SetWaitStats(&db.waits)
	db.txns.OnCommit(func(txID int64) { db.flight.Record(obs.EvCommit, txID, 0, "") })
	db.txns.OnRollback(func(txID int64) { db.flight.Record(obs.EvRollback, txID, 0, "") })
	db.wal = storage.NewWAL(sink, recovery.LastSeq, recovery.IntactBytes)
	db.wal.SetObs(&db.waits, db.flight)
	// Redo-only logging is correct only if uncommitted changes never
	// reach the page file: no-steal buffer pool.
	pager.SetNoSteal(true)
	if backend.NumPages() == 0 {
		if err := db.initSuperblock(); err != nil {
			return nil, err
		}
	} else if err := db.loadSnapshot(); err != nil {
		return nil, err
	} else if err := db.rebuildDerived(recovery.Commits > 0); err != nil {
		return nil, err
	}
	db.txns.SetCommitSink(db.logCommit)
	// Undo replay restores page content, so it must run inside the
	// mutation window — re-entrant when the statement that failed is
	// already holding it.
	db.txns.SetUndoScope(func(txID int64) func() {
		return db.enterMutation(txID, true)
	})
	// Whatever frames a finished transaction still owns become
	// orphans: a committed txn's frames were disowned by its sweep
	// (anything left was re-dirtied logging, i.e. committed content),
	// and a rolled-back txn's frames hold restored pre-images.
	// Transaction-scoped admissions orphan their frames earlier, in
	// the per-txn admission release (which must run before admission
	// frees — see admitWrite); this manager-level handler is the path
	// that covers statement-scoped (autocommit) writers, which hold
	// admission until after their transaction finishes.
	releaseOwner := func(txID int64) { db.pager.ReleaseOwner(txID) }
	db.txns.OnCommit(releaseOwner)
	db.txns.OnRollback(releaseOwner)
	if recovery.Records > 0 || recovery.TornTail {
		// Fold the replayed state into the page file and truncate the
		// log so it does not grow across restarts.
		if err := db.Checkpoint(); err != nil {
			return nil, fmt.Errorf("engine: post-recovery checkpoint: %w", err)
		}
	}
	// The background checkpointer starts last: everything it touches
	// is wired, and recovery's foreground checkpoint has already run.
	db.startCheckpointer(opts, cache)
	return db, nil
}

// Close checkpoints (dictionary chain + flush + WAL truncation) and
// closes the database. Close attempts every cleanup step even when an
// earlier one fails, folding the errors together. When the checkpoint is refused or
// fails (open write transaction, broken or partially flushed log), the
// buffer pool is discarded instead of flushed — flushing could push
// uncommitted or unlogged pages to the page file — and the next Open
// recovers committed state from the log.
func (db *DB) Close() error {
	// Drain the background checkpointer first: a checkpoint of its own in
	// flight holds admission, which would make the foreground checkpoint
	// below report ErrTxnOpen and wrongly discard the buffer pool.
	db.stopCheckpointer()
	err := db.Checkpoint()
	if err != nil {
		err = errors.Join(err, db.pager.CloseDiscard())
	} else {
		err = db.pager.Close()
	}
	// One more attempt to cut a suspect tail left by a failed commit
	// whose truncation also failed; idempotent when already clean.
	db.walMu.Lock()
	err = errors.Join(err, db.wal.TruncateToSynced())
	db.walMu.Unlock()
	return errors.Join(err, db.wal.Close())
}

// logCommit is the transaction manager's commit sink: it appends the
// image of every page in the committing transaction's write set, then a
// commit record carrying the transaction id — both inside the mutation
// window and under the short WAL append mutex — and then makes the log
// durable through the WAL's shared-fsync protocol, outside both locks.
// Only after it returns nil is the commit acknowledged. A transaction
// that dirtied no pages skips the log entirely: everything durable,
// the dictionary included, is a page.
func (db *DB) logCommit(txID int64) error {
	exit := db.enterMutation(txID, false)
	target, err := db.appendCommitBatch(txID)
	exit()
	if err != nil || target == 0 {
		return err
	}
	if err := db.wal.SyncShared(target); err != nil {
		// The whole batch is poisoned: this commit's durability is
		// unknown, so the WAL is marked broken and the suspect tail cut.
		db.walMu.Lock()
		err = db.failWAL(err)
		db.walMu.Unlock()
		return err
	}
	return nil
}

// appendCommitBatch appends the transaction's frame batch and commit
// record under walMu (the short append mutex concurrent committers
// serialize on) and returns the log length to sync up to — 0 when the
// transaction has nothing to log.
func (db *DB) appendCommitBatch(txID int64) (int64, error) {
	aw := db.waits.StartWait(obs.WaitWALAppend)
	db.walMu.Lock()
	aw.Done()
	defer db.walMu.Unlock()
	if db.walBroken {
		return 0, ErrWALBroken
	}
	n, err := db.pager.AppendUnloggedFor(db.wal, txID)
	if err != nil {
		return 0, db.failWAL(err)
	}
	if n == 0 {
		return 0, nil
	}
	if err := db.wal.AppendCommit(txID); err != nil {
		return 0, db.failWAL(err)
	}
	return db.wal.LogSize(), nil
}

// failWAL poisons the WAL and cuts the log back to the last successfully
// synced length: the bytes past it may or may not have reached durable
// media, and a commit record the client is about to see fail must never
// replay as committed after reopening. If even the truncation fails,
// Close retries it; the poisoning stands either way. Callers hold walMu.
func (db *DB) failWAL(err error) error {
	db.walBroken = true
	if terr := db.wal.TruncateToSynced(); terr != nil {
		return errors.Join(err, fmt.Errorf("engine: discard suspect wal tail: %w", terr))
	}
	return err
}

// Registry exposes the extensible-indexing registry so cartridges can
// register their IndexMethods, StatsMethods and functions before issuing
// the SQL DDL that references them.
func (db *DB) Registry() *extidx.Registry { return db.reg }

// Catalog exposes the data dictionary (read-mostly: tools and tests).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// PagerStats returns buffer-pool I/O counters (benchmarks read these to
// reproduce the paper's logical-I/O claims), with the WAL counters
// folded in.
func (db *DB) PagerStats() storage.Stats {
	s := db.pager.Stats()
	db.wal.AddStats(&s)
	return s
}

// LeakCheck reports buffer-pool state that must not exist at rest (no
// statement executing, no write transaction open): pinned frames mean a
// pin leak, and owner-attributed dirty frames mean a finished
// transaction failed to disown its write set. Stress and invariants
// tests call it between workload phases.
func (db *DB) LeakCheck() error {
	if leaked := db.pager.PinnedPages(); len(leaked) > 0 {
		return db.withFlightDump(fmt.Errorf("engine: %d pinned page(s) at rest: %v", len(leaked), leaked))
	}
	if owned := db.pager.OwnedPages(); len(owned) > 0 {
		return db.withFlightDump(fmt.Errorf("engine: %d owner-attributed frame(s) at rest: %v", len(owned), owned))
	}
	return nil
}

// withFlightDump appends the tail of the flight recorder to a failure:
// the recent commits/rollbacks/conflicts are usually exactly the
// context needed to see which workload phase left the state behind.
func (db *DB) withFlightDump(err error) error {
	tail := flightTail(db.flight, flightTailEvents)
	if len(tail) == 0 {
		return err
	}
	lines := make([]string, len(tail))
	for i, e := range tail {
		lines[i] = "  " + e.String()
	}
	return fmt.Errorf("%w\nflight recorder (last %d events):\n%s", err, len(tail), strings.Join(lines, "\n"))
}

// flightTail returns the most recent n events, oldest first.
func flightTail(f *obs.FlightRecorder, n int) []obs.FlightEvent {
	evs := f.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// noteCheckpointBlocked records one refused checkpoint attempt: a
// zero-duration CheckpointBlocked wait (the caller was turned away, not
// parked) plus a flight event.
func (db *DB) noteCheckpointBlocked() {
	db.waits.Record(obs.WaitCheckpointBlocked, 0)
	db.flight.Record(obs.EvCheckpoint, 0, 0, "refused")
}

// noteWriteConflict records one transaction aborted by
// storage.ErrWriteConflict against the table whose statement hit it.
func (db *DB) noteWriteConflict(table string) {
	db.conflicts.RecordAbort(sql.Norm(table))
	db.flight.Record(obs.EvWriteConflict, 0, 0, sql.Norm(table))
}

// FlightRecorder exposes the always-on event ring (`\flight`, tests).
func (db *DB) FlightRecorder() *obs.FlightRecorder { return db.flight }

// Waits exposes the live wait-event table. External retry loops use it
// to record WaitWriteConflictBackoff around their backoff sleeps, so
// retry burden shows up in the same breakdown as engine-internal waits.
func (db *DB) Waits() *obs.WaitStats { return &db.waits }

// LOBStore exposes the database LOB store.
func (db *DB) LOBStore() *loblib.LOBStore { return db.lobs }

// TxnEvents exposes the database-event registry (§5): handlers fire on
// every commit/rollback in the database.
func (db *DB) TxnEvents() *txn.Manager { return db.txns }

// Workspace exposes the scan-context workspace (tests check for leaks).
func (db *DB) Workspace() *extidx.Workspace { return db.ws }

// Checkpoint rewrites the dictionary chain (refreshing its statistics),
// flushes all dirty pages to the backend (making the on-disk image
// reopenable), and — once the page file is durably in sync — truncates
// the WAL, which the flush just made redundant. Checkpoint must not run
// while a write transaction is open: the flush writes every dirty page,
// and under redo-only logging an uncommitted page on disk would have no
// undo to remove it. That rule is enforced, not assumed — Checkpoint
// holds write admission exclusively for its whole run and returns
// ErrTxnOpen when any writer is admitted. With admission held, every
// frame owner has finished (commit sweeps disown on logging, admission
// release orphans the rest before letting go), so the owner-0 sweep
// below covers everything dirty.
func (db *DB) Checkpoint() error {
	if !db.admission.TryLock() {
		db.noteCheckpointBlocked()
		return ErrTxnOpen
	}
	defer db.admission.Unlock()
	db.flight.Record(obs.EvCheckpoint, 0, 0, "")
	if invariantsEnabled {
		if owned := db.pager.OwnedPages(); len(owned) > 0 {
			panic(fmt.Sprintf("engine: checkpoint with admission held found owned frames %v", owned))
		}
	}
	exit := db.enterMutation(0, false)
	err := db.writeSnapshotChain()
	exit()
	if err != nil {
		return err
	}
	// Log the chain pages (and every orphan still unlogged) with a
	// commit record before the flush: a crash that tears the page file
	// mid-flush is then repaired by replay, chain included.
	if err := db.logCommit(0); err != nil {
		return err
	}
	if err := db.pager.FlushAll(); err != nil {
		return err
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.walBroken {
		return ErrWALBroken // never truncate a log we could not write
	}
	return db.wal.Reset()
}

func (db *DB) parse(text string) (sql.Statement, error) {
	db.parseMu.Lock()
	st, ok := db.parseCache[text]
	db.parseMu.Unlock()
	if ok {
		return st, nil
	}
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	db.parseMu.Lock()
	if len(db.parseCache) > 4096 { // bound the cache
		db.parseCache = make(map[string]sql.Statement)
	}
	db.parseCache[text] = st
	db.parseMu.Unlock()
	return st, nil
}

// resolveKind maps a SQL type name to a value kind, consulting the
// catalog for user-defined object types.
func (db *DB) resolveKind(typeName string) (types.Kind, string, error) {
	if _, ok := db.cat.TypeDesc(typeName); ok {
		return types.KindObject, typeName, nil
	}
	k, err := types.ParseKind(typeName)
	if err != nil {
		return types.KindNull, "", err
	}
	return k, typeName, nil
}

// fmtErr wraps an error with statement context.
func fmtErr(op string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", op, err)
}
