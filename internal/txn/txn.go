// Package txn provides the engine's transaction facilities: per-transaction
// undo logs with savepoints (statement-level atomicity and rollback),
// database events (handlers fired at commit/rollback, the mechanism §5 of
// the paper proposes for keeping externally-stored index data consistent),
// and a table-level lock manager.
//
// Because domain index data stored inside the database is modified through
// the same heap/B-tree primitives as base tables, its changes land on the
// same undo log and roll back together with the base table — the paper's
// "transactional semantics are automatically ensured" property. Index data
// stored outside the database gets no such treatment; registering commit /
// rollback event handlers is the escape hatch.
package txn

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Undoer reverses one logged change. Implementations exist in the storage
// structures (heap undo, B-tree undo, LOB undo) and are pushed onto the
// transaction as changes happen.
type Undoer interface {
	Undo() error
}

// UndoFunc adapts a closure to the Undoer interface.
type UndoFunc func() error

// Undo implements Undoer.
func (f UndoFunc) Undo() error { return f() }

// State is the lifecycle state of a transaction.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	RolledBack
)

// Txn is a single transaction: an undo log plus commit/rollback hooks.
// A Txn is not safe for concurrent use; the session owning it serializes.
type Txn struct {
	ID    int64
	mgr   *Manager
	undo  []Undoer
	state State
	// Per-transaction event handlers, in addition to the manager-level
	// ones. Index implementations with external stores attach these while
	// the transaction runs (§5 of the paper).
	onCommit   []func()
	onRollback []func()
}

// OnCommit attaches a handler fired if (and only if) this transaction
// commits.
func (t *Txn) OnCommit(fn func()) { t.onCommit = append(t.onCommit, fn) }

// OnRollback attaches a handler fired if (and only if) this transaction
// rolls back.
func (t *Txn) OnRollback(fn func()) { t.onRollback = append(t.onRollback, fn) }

// Savepoint marks the current undo position; RollbackTo(sp) undoes
// everything logged after it. The executor sets a savepoint before each
// statement so a failed statement rolls back atomically without killing
// the transaction (Oracle's statement-level atomicity).
type Savepoint int

// Manager creates transactions and owns the database-event registry.
type Manager struct {
	mu         sync.Mutex
	nextID     int64
	onCommit   []func(txID int64)
	onRollback []func(txID int64)
	commitSink func(txID int64) error
	undoScope  func(txID int64) (exit func())

	// Lifecycle counters (atomic: Stats snapshots race with sessions).
	begins    obs.Counter
	commits   obs.Counter
	rollbacks obs.Counter
}

// Stats is an inert snapshot of transaction lifecycle counts. A commit
// whose durability sink fails counts as a rollback, not a commit —
// exactly the acknowledgement the client saw.
type Stats struct {
	Begins    int64
	Commits   int64
	Rollbacks int64
}

// Stats returns a snapshot of the lifecycle counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Begins:    m.begins.Load(),
		Commits:   m.commits.Load(),
		Rollbacks: m.rollbacks.Load(),
	}
}

// SetCommitSink installs the durability hook run by every Commit before
// the transaction is finalized or acknowledged. The engine points it at
// the WAL: append the transaction's page images and a commit record,
// then fsync. If the sink fails, the commit does not happen — the
// transaction is rolled back and the error returned to the caller.
func (m *Manager) SetCommitSink(fn func(txID int64) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commitSink = fn
}

func (m *Manager) sink() func(int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitSink
}

// SetUndoScope installs a hook bracketing every undo replay (RollbackTo
// and Rollback). The engine points it at its mutation window so undo —
// which restores page content — is serialized against concurrent
// writers' commit sweeps: without it, a sweep could log a page while an
// aborting transaction is half-way through restoring it. The hook must
// be re-entrant per transaction (a statement that fails inside its own
// mutation window rolls back inside that window).
func (m *Manager) SetUndoScope(fn func(txID int64) (exit func())) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.undoScope = fn
}

func (m *Manager) scope() func(int64) func() {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.undoScope
}

// NewManager returns a transaction manager.
func NewManager() *Manager { return &Manager{nextID: 1} }

// Begin starts a new transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	m.mu.Unlock()
	m.begins.Inc()
	return &Txn{ID: id, mgr: m}
}

// OnCommit registers a database event handler invoked after every
// successful commit. Indextypes that keep index data outside the database
// register handlers here to make their external stores transactional (§5).
func (m *Manager) OnCommit(fn func(txID int64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onCommit = append(m.onCommit, fn)
}

// OnRollback registers a database event handler invoked after every
// rollback.
func (m *Manager) OnRollback(fn func(txID int64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onRollback = append(m.onRollback, fn)
}

func (m *Manager) commitHandlers() []func(int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]func(int64), len(m.onCommit))
	copy(out, m.onCommit)
	return out
}

func (m *Manager) rollbackHandlers() []func(int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]func(int64), len(m.onRollback))
	copy(out, m.onRollback)
	return out
}

// State returns the transaction's lifecycle state.
func (t *Txn) State() State { return t.state }

// Record pushes an undo entry. It panics if the transaction is finished —
// that is always an engine bug, not a user error.
func (t *Txn) Record(u Undoer) {
	if t.state != Active {
		panic("txn: Record on finished transaction")
	}
	t.undo = append(t.undo, u)
}

// UndoDepth reports how many undo entries are logged (tests use it).
func (t *Txn) UndoDepth() int { return len(t.undo) }

// Savepoint returns a marker for the current undo position.
func (t *Txn) Savepoint() Savepoint { return Savepoint(len(t.undo)) }

// RollbackTo undoes, in reverse order, everything logged after sp.
func (t *Txn) RollbackTo(sp Savepoint) error {
	if t.state != Active {
		return fmt.Errorf("txn: rollback-to on finished transaction")
	}
	if int(sp) > len(t.undo) {
		return fmt.Errorf("txn: savepoint %d beyond undo log (%d)", sp, len(t.undo))
	}
	if len(t.undo) > int(sp) {
		if scope := t.mgr.scope(); scope != nil {
			exit := scope(t.ID)
			defer exit()
		}
	}
	var firstErr error
	for i := len(t.undo) - 1; i >= int(sp); i-- {
		if err := t.undo[i].Undo(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.undo = t.undo[:sp]
	return firstErr
}

// Commit finishes the transaction: it runs the durability sink (WAL
// append + fsync) and only then discards undo and fires commit events.
// A sink failure rolls the transaction back — an unacknowledged commit
// must leave no trace, in memory or on disk.
func (t *Txn) Commit() error {
	if t.state != Active {
		return fmt.Errorf("txn: commit on finished transaction")
	}
	if sink := t.mgr.sink(); sink != nil {
		if err := sink(t.ID); err != nil {
			if rbErr := t.Rollback(); rbErr != nil {
				return fmt.Errorf("txn: commit durability failed: %w (rollback also failed: %v)", err, rbErr)
			}
			return fmt.Errorf("txn: commit durability failed, transaction rolled back: %w", err)
		}
	}
	t.state = Committed
	t.undo = nil
	t.mgr.commits.Inc()
	for _, fn := range t.onCommit {
		fn()
	}
	for _, fn := range t.mgr.commitHandlers() {
		fn(t.ID)
	}
	return nil
}

// Rollback undoes every logged change in reverse order and fires rollback
// events. It returns the first undo error but continues undoing.
func (t *Txn) Rollback() error {
	if t.state != Active {
		return fmt.Errorf("txn: rollback on finished transaction")
	}
	err := t.RollbackTo(0)
	t.state = RolledBack
	t.mgr.rollbacks.Inc()
	for _, fn := range t.onRollback {
		fn()
	}
	for _, fn := range t.mgr.rollbackHandlers() {
		fn(t.ID)
	}
	return err
}

// LockManager hands out table-level shared/exclusive locks. Statements
// declare every object they touch up front and the manager acquires the
// locks in sorted name order, which makes deadlock impossible.
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*sync.RWMutex

	// waits, when set, receives contended acquisitions as WaitTableLock
	// events. Written once at wiring time (SetWaitStats), before
	// concurrent use; nil is safe.
	waits *obs.WaitStats
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{locks: make(map[string]*sync.RWMutex)}
}

// SetWaitStats routes contended table-lock acquisitions into the engine
// wait table. Call once at wiring time, before concurrent use.
func (lm *LockManager) SetWaitStats(w *obs.WaitStats) { lm.waits = w }

func (lm *LockManager) get(name string) *sync.RWMutex {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[name]
	if !ok {
		l = &sync.RWMutex{}
		lm.locks[name] = l
	}
	return l
}

// Acquire locks each named object (shared by default, exclusive for names
// in the exclusive set) in sorted order and returns a release function.
func (lm *LockManager) Acquire(names []string, exclusive map[string]bool) (release func()) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	// De-duplicate, keeping exclusive if requested anywhere.
	uniq := sorted[:0]
	for i, n := range sorted {
		if i == 0 || sorted[i-1] != n {
			uniq = append(uniq, n)
		}
	}
	type held struct {
		l  *sync.RWMutex
		ex bool
	}
	hs := make([]held, 0, len(uniq))
	for _, n := range uniq {
		l := lm.get(n)
		if exclusive[n] {
			// TryLock keeps the uncontended path free of timing calls; only
			// a lost race starts a timed WaitTableLock interval.
			if !l.TryLock() {
				aw := lm.waits.StartWait(obs.WaitTableLock)
				l.Lock()
				aw.Done()
			}
			hs = append(hs, held{l, true})
		} else {
			if !l.TryRLock() {
				aw := lm.waits.StartWait(obs.WaitTableLock)
				l.RLock()
				aw.Done()
			}
			hs = append(hs, held{l, false})
		}
	}
	return func() {
		for i := len(hs) - 1; i >= 0; i-- {
			if hs[i].ex {
				hs[i].l.Unlock()
			} else {
				hs[i].l.RUnlock()
			}
		}
	}
}
