package engine

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/catalog"
	"repro/internal/extidx"
	"repro/internal/loblib"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
)

// Result reports the outcome of a non-query statement.
type Result struct {
	RowsAffected int64
}

// ResultSet is a fully materialized query result.
type ResultSet struct {
	Columns []string
	Rows    [][]types.Value
}

// Session is one client connection: it owns the current transaction (or
// runs in autocommit) and carries the per-row ancillary store used by
// ancillary operators. Sessions are not safe for concurrent use.
type Session struct {
	db       *DB
	tx       *txn.Txn
	explicit bool
	// admitted is set while the explicit transaction holds shared write
	// admission (from its first write statement until it finishes).
	admitted bool

	// Callback context: non-nil while this session is a callback session
	// handed to indextype routines.
	cbMode      extidx.CallbackMode
	cbBaseTable string // protected base table during maintenance
	isCallback  bool

	// anc holds ancillary values for the row currently being evaluated.
	anc map[int64]types.Value

	// noLock suppresses table locking (callback sessions run inside the
	// invoking statement, which already holds its locks).
	noLock bool

	// forced overrides the optimizer's access-path choice (test/bench
	// hook, see SetForcedPath).
	forced string

	// parallel is the session's requested degree of parallelism for
	// eligible table accesses (see SetParallel). <= 1 means serial — the
	// default, so existing single-threaded behavior is opt-out of
	// nothing; the planner may still drop an eligible scan to serial
	// (small estimate, ancillary labels).
	parallel int

	// trace, while non-nil, is the active query trace: the planner
	// appends costed candidates to it and wraps operators in
	// exec.Instrument nodes. pendingTrace stages a trace for the next
	// runSelect (EXPLAIN ANALYZE and QueryTraced set it). Both are nil on
	// the untraced fast path.
	trace        *obs.QueryTrace
	pendingTrace *obs.QueryTrace

	// decodeAll makes SELECT scans decode every column: the oracle the
	// projection-parity test compares the column masks against. Only
	// tests set it.
	decodeAll bool
}

// NewSession opens a session on the database.
func (db *DB) NewSession() *Session {
	return &Session{db: db, anc: make(map[int64]types.Value)}
}

// DB returns the owning database.
func (s *Session) DB() *DB { return s.db }

// SetParallel sets the session's degree of parallelism for eligible
// table accesses. n <= 1 (1 is the default) keeps every plan serial.
// n > 1 lets the planner run full heap scans and partitioned domain
// scans behind an exchange with n workers; an explicit degree is
// honoured as given, whatever GOMAXPROCS is (see pathDegree). n == 0
// means "auto": use GOMAXPROCS. Parallel plans return rows in
// nondeterministic order unless the query has an ORDER BY; the degree
// actually chosen per scan appears as parallel=<n> in EXPLAIN output.
func (s *Session) SetParallel(n int) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	s.parallel = n
}

// Parallel reports the session's requested degree of parallelism.
func (s *Session) Parallel() int {
	if s.parallel < 1 {
		return 1
	}
	return s.parallel
}

// ---------------------------------------------------------------------------
// Transaction plumbing

// begin returns the transaction to run a statement in and a finish
// function: in autocommit mode each statement gets its own transaction;
// inside BEGIN...COMMIT the session transaction is reused with a
// savepoint for statement atomicity.
func (s *Session) begin() (*txn.Txn, func(err error) error) {
	if s.explicit && s.tx != nil {
		sp := s.tx.Savepoint()
		return s.tx, func(err error) error {
			if err != nil {
				if rbErr := s.tx.RollbackTo(sp); rbErr != nil {
					return fmt.Errorf("%w (statement rollback also failed: %v)", err, rbErr)
				}
			}
			return err
		}
	}
	t := s.db.txns.Begin()
	s.tx = t
	return t, func(err error) error {
		s.tx = nil
		if err != nil {
			if rbErr := t.Rollback(); rbErr != nil {
				return fmt.Errorf("%w (rollback also failed: %v)", err, rbErr)
			}
			return err
		}
		return t.Commit()
	}
}

// admitWrite admits the DML statement about to run into the writer
// population, returning the statement-end release (a no-op when
// admission is transaction-scoped). It must run before the statement
// takes any table lock: admission waiters hold no locks, so the
// admission → table-lock order can never cycle.
//
//   - Callback session: the invoking write statement's transaction is
//     already admitted.
//   - Explicit transaction: admission is acquired for the transaction
//     and released when it commits or rolls back.
//   - Autocommit: the statement's transaction begins and commits inside
//     the statement, so admission spans the statement's duration.
//
// DML admits shared — that is the whole point of group commit: many
// writers in flight, one fsync. Writers that touch the same pages,
// domain-index data and LOBs included, are kept apart by page ownership
// (storage.ErrWriteConflict), and bitmap indexes are rebuilt from their
// heaps on Open, so no DML needs the writer population to itself.
func (s *Session) admitWrite() func() {
	db := s.db
	if s.isCallback {
		return func() {}
	}
	if s.explicit && s.tx != nil {
		if !s.admitted {
			s.admitted = true
			db.admitAcquire(false)
			t := s.tx
			release := func() {
				// Orphan the transaction's frames before admission frees:
				// the instant admission is released a checkpoint may pass
				// TryLock, and it must never observe owner-attributed
				// frames.
				db.pager.ReleaseOwner(t.ID)
				s.admitted = false
				db.admitRelease(false)
			}
			t.OnCommit(release)
			t.OnRollback(release)
		}
		return func() {}
	}
	db.admitAcquire(false)
	return func() { db.admitRelease(false) }
}

// runWrite executes a write statement's mutation body inside the
// database's mutation window and settles the transaction with the
// correct window discipline:
//
//   - The body (and any statement-level rollback a failure triggers)
//     runs inside the window — page mutation and undo replay are
//     serialized against concurrent committers' sweeps.
//   - A successful finish runs outside the window, so an autocommit
//     fsync can group with other committers instead of convoying the
//     window behind the disk.
//
// The pager's pending write-conflict (another uncommitted transaction
// already owns a frame this statement dirtied) is consumed
// unconditionally at statement end — a body that fails for an unrelated
// reason after latching a conflict must not leave it behind to falsely
// abort the next statement. A clean body with a latched conflict aborts
// with storage.ErrWriteConflict; when both are set the body's own error
// wins. Every latched conflict — surfaced or masked by the body's own
// error — is counted against table, the statement's target, so W1-style
// runs see the retry burden per table.
func (s *Session) runWrite(t *txn.Txn, finish func(err error) error, table string, body func() error) error {
	db := s.db
	exit := db.enterMutation(t.ID, false)
	err := body()
	if cerr := db.pager.TakeConflict(); cerr != nil {
		db.noteWriteConflict(table)
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		err = finish(err) // rollback replays undo inside this window
		exit()
		return err
	}
	exit()
	return finish(nil)
}

// Begin starts an explicit transaction.
func (s *Session) Begin() error {
	if s.explicit {
		return fmt.Errorf("engine: transaction already open")
	}
	s.tx = s.db.txns.Begin()
	s.explicit = true
	return nil
}

// Commit commits the explicit transaction.
func (s *Session) Commit() error {
	if !s.explicit || s.tx == nil {
		return fmt.Errorf("engine: no open transaction")
	}
	err := s.tx.Commit()
	s.tx = nil
	s.explicit = false
	return err
}

// Rollback rolls the explicit transaction back.
func (s *Session) Rollback() error {
	if !s.explicit || s.tx == nil {
		return fmt.Errorf("engine: no open transaction")
	}
	err := s.tx.Rollback()
	s.tx = nil
	s.explicit = false
	return err
}

// InExplicitTxn reports whether a BEGIN block is open.
func (s *Session) InExplicitTxn() bool { return s.explicit }

// lockTables acquires statement locks (sorted, deadlock-free) unless this
// is a callback session.
func (s *Session) lockTables(read []string, write []string) func() {
	if s.noLock {
		return func() {}
	}
	var names []string
	ex := map[string]bool{}
	for _, r := range read {
		names = append(names, sql.Norm(r))
	}
	for _, w := range write {
		n := sql.Norm(w)
		names = append(names, n)
		ex[n] = true
	}
	return s.db.locks.Acquire(names, ex)
}

// ---------------------------------------------------------------------------
// Statement dispatch

// Exec runs any SQL statement, returning the affected-row count for DML.
func (s *Session) Exec(text string, params ...types.Value) (Result, error) {
	st, err := s.db.parse(text)
	if err != nil {
		return Result{}, err
	}
	switch x := st.(type) {
	case *sql.Select:
		rs, err := s.runSelect(x, params)
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: int64(len(rs.Rows))}, nil
	case *sql.ExplainStmt:
		if x.Analyze {
			_, err := s.ExplainAnalyze(x.Query, params)
			return Result{}, err
		}
		_, err := s.Explain(x.Query, params)
		return Result{}, err
	case *sql.Insert:
		return s.execInsert(x, params)
	case *sql.Update:
		return s.execUpdate(x, params)
	case *sql.Delete:
		return s.execDelete(x, params)
	case *sql.BeginStmt:
		return Result{}, s.Begin()
	case *sql.CommitStmt:
		return Result{}, s.Commit()
	case *sql.RollbackStmt:
		return Result{}, s.Rollback()
	default:
		return Result{}, s.execDDL(st)
	}
}

// Query runs a SELECT (or EXPLAIN) and returns the materialized result.
func (s *Session) Query(text string, params ...types.Value) (*ResultSet, error) {
	st, err := s.db.parse(text)
	if err != nil {
		return nil, err
	}
	switch x := st.(type) {
	case *sql.Select:
		return s.runSelect(x, params)
	case *sql.ExplainStmt:
		if x.Analyze {
			return s.ExplainAnalyze(x.Query, params)
		}
		return s.Explain(x.Query, params)
	default:
		return nil, fmt.Errorf("engine: Query requires SELECT or EXPLAIN, got %T", st)
	}
}

// QueryTraced runs a SELECT with a query trace attached and returns the
// result set together with the trace (candidates, per-operator actuals,
// pager delta). It is the structured-API counterpart of EXPLAIN ANALYZE.
func (s *Session) QueryTraced(text string, params ...types.Value) (*ResultSet, *obs.QueryTrace, error) {
	st, err := s.db.parse(text)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, nil, fmt.Errorf("engine: QueryTraced requires SELECT, got %T", st)
	}
	tr := obs.NewQueryTrace(text)
	s.pendingTrace = tr
	rs, err := s.runSelect(sel, params)
	return rs, tr, err
}

// ---------------------------------------------------------------------------
// exec.Env implementation (functions, operators, ancillary data)

// CallFunction implements exec.Env.
func (s *Session) CallFunction(name string, args []types.Value) (types.Value, bool, error) {
	if fn, ok := s.db.reg.Function(name); ok {
		v, err := fn(args)
		return v, true, err
	}
	return types.Null(), false, nil
}

// CallOperator implements exec.Env: the functional evaluation of a
// user-defined operator (used whenever the optimizer does not route the
// predicate to a domain index scan).
func (s *Session) CallOperator(name string, args []types.Value) (types.Value, bool, error) {
	op, ok := s.db.cat.Operator(name)
	if !ok {
		return types.Null(), false, nil
	}
	kinds := make([]types.Kind, len(args))
	for i, a := range args {
		kinds[i] = a.Kind()
	}
	b, ok := op.FindBinding(kinds)
	if !ok {
		// Operator invocations may carry a trailing ancillary label; retry
		// without it.
		if len(args) > 0 && args[len(args)-1].Kind() == types.KindNumber {
			if b2, ok2 := op.FindBinding(kinds[:len(kinds)-1]); ok2 {
				b, ok, args = b2, true, args[:len(args)-1]
			}
		}
		if !ok {
			return types.Null(), true, fmt.Errorf("engine: no binding of operator %s for %d arguments", name, len(args))
		}
	}
	fn, found := s.db.reg.Function(b.FuncName)
	if !found {
		return types.Null(), true, fmt.Errorf("engine: operator %s bound to unregistered function %s", name, b.FuncName)
	}
	v, err := fn(args)
	return v, true, err
}

// AncillaryValue implements exec.Env.
func (s *Session) AncillaryValue(label int64) (types.Value, bool) {
	v, ok := s.anc[label]
	return v, ok
}

// SetAncillary implements exec.AncillarySink: domain scans publish
// per-row ancillary values here.
func (s *Session) SetAncillary(label int64, v types.Value) {
	s.anc[label] = v
}

// IsAncillaryOp implements exec.Env.
func (s *Session) IsAncillaryOp(name string) (string, bool) {
	op, ok := s.db.cat.Operator(name)
	if !ok || op.AncillaryTo == "" {
		return "", false
	}
	return op.AncillaryTo, true
}

// ---------------------------------------------------------------------------
// extidx.Server implementation (callback sessions)

// callbackSession derives a restricted session for indextype routines.
// It shares the invoking statement's transaction, so all SQL the routine
// executes lands in the same transaction and snapshot (§2.5).
func (s *Session) callbackSession(mode extidx.CallbackMode, baseTable string) *Session {
	return &Session{
		db:          s.db,
		tx:          s.tx,
		explicit:    true, // reuse invoking txn; never autocommit
		cbMode:      mode,
		cbBaseTable: sql.Norm(baseTable),
		isCallback:  true,
		noLock:      true,
		anc:         make(map[int64]types.Value),
	}
}

// Mode implements extidx.Server.
func (s *Session) Mode() extidx.CallbackMode { return s.cbMode }

// QueryCB is the extidx.Server Query method; it is named Query in the
// interface and implemented by the same Session type.
// (See Query above — callback restrictions are enforced in checkCallback.)

// checkCallback enforces the paper's callback restrictions before a
// statement executes on a callback session.
func (s *Session) checkCallback(st sql.Statement) error {
	if !s.isCallback {
		return nil
	}
	isQuery := false
	switch st.(type) {
	case *sql.Select, *sql.ExplainStmt:
		isQuery = true
	}
	switch s.cbMode {
	case extidx.ModeDefinition:
		return nil
	case extidx.ModeScan:
		if !isQuery {
			return fmt.Errorf("engine: index scan routines can only execute query statements (got %T)", st)
		}
		return nil
	case extidx.ModeMaintenance:
		switch x := st.(type) {
		case *sql.Select, *sql.ExplainStmt:
			return nil
		case *sql.Insert:
			return s.checkNotBase(x.Table)
		case *sql.Update:
			return s.checkNotBase(x.Table)
		case *sql.Delete:
			return s.checkNotBase(x.Table)
		default:
			return fmt.Errorf("engine: index maintenance routines cannot execute DDL (got %T)", st)
		}
	}
	return nil
}

func (s *Session) checkNotBase(table string) error {
	if sql.Norm(table) == s.cbBaseTable {
		return fmt.Errorf("engine: index maintenance routines cannot update the base table %s", s.cbBaseTable)
	}
	return nil
}

// serverFacade adapts a callback Session to extidx.Server. A separate
// type keeps the restricted Query/Exec signatures of the interface
// (variadic types.Value) distinct from the Session API.
type serverFacade struct {
	s *Session
}

// Mode implements extidx.Server.
func (f serverFacade) Mode() extidx.CallbackMode { return f.s.cbMode }

// Query implements extidx.Server.
func (f serverFacade) Query(text string, args ...types.Value) ([][]types.Value, error) {
	st, err := f.s.db.parse(text)
	if err != nil {
		return nil, err
	}
	if err := f.s.checkCallback(st); err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("engine: callback Query requires SELECT, got %T", st)
	}
	rs, err := f.s.runSelect(sel, args)
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// Exec implements extidx.Server.
func (f serverFacade) Exec(text string, args ...types.Value) (int64, error) {
	st, err := f.s.db.parse(text)
	if err != nil {
		return 0, err
	}
	if err := f.s.checkCallback(st); err != nil {
		return 0, err
	}
	switch x := st.(type) {
	case *sql.Select:
		rs, err := f.s.runSelect(x, args)
		if err != nil {
			return 0, err
		}
		return int64(len(rs.Rows)), nil
	case *sql.Insert:
		r, err := f.s.execInsert(x, args)
		return r.RowsAffected, err
	case *sql.Update:
		r, err := f.s.execUpdate(x, args)
		return r.RowsAffected, err
	case *sql.Delete:
		r, err := f.s.execDelete(x, args)
		return r.RowsAffected, err
	default:
		if err := f.s.execDDL(st); err != nil {
			return 0, err
		}
		return 0, nil
	}
}

// LOBs implements extidx.Server, returning the transactional LOB view.
func (f serverFacade) LOBs() loblib.Store { return txLOBStore{s: f.s} }

// Workspace implements extidx.Server.
func (f serverFacade) Workspace() *extidx.Workspace { return f.s.db.ws }

// RowCountEstimate implements extidx.Server from the data dictionary.
func (f serverFacade) RowCountEstimate(table string) (float64, error) {
	t, ok := f.s.db.cat.Table(table)
	if !ok {
		return 0, fmt.Errorf("engine: table %s does not exist", table)
	}
	return float64(t.RowCount), nil
}

// OnTxnCommit implements extidx.Server.
func (f serverFacade) OnTxnCommit(fn func()) {
	if f.s.tx != nil {
		f.s.tx.OnCommit(fn)
	} else {
		fn() // no transaction: autocommit semantics, fire immediately
	}
}

// OnTxnRollback implements extidx.Server. The handler runs inside the
// mutation window, like the maintenance callbacks whose work it undoes,
// so index data kept outside the database (§5) is never changed by a
// rollback handler and another writer's callback at once.
func (f serverFacade) OnTxnRollback(fn func()) {
	if f.s.tx != nil {
		db, txID := f.s.db, f.s.tx.ID
		f.s.tx.OnRollback(func() {
			exit := db.enterMutation(txID, true)
			defer exit()
			fn()
		})
	}
}

// server builds the extidx.Server facade for a callback mode.
func (s *Session) server(mode extidx.CallbackMode, baseTable string) extidx.Server {
	return serverFacade{s: s.callbackSession(mode, baseTable)}
}

// CallbackServer exposes a callback session for tooling that drives
// indextype routines outside the engine's implicit invocation — e.g. the
// benchmark harness that replays the pre-8i two-step execution model.
func (s *Session) CallbackServer(mode extidx.CallbackMode, baseTable string) extidx.Server {
	return s.server(mode, baseTable)
}

// indexMethodsFor resolves the registered IndexMethods for a domain index.
func (s *Session) indexMethodsFor(ix *catalog.Index) (extidx.IndexMethods, *catalog.IndexType, error) {
	it, ok := s.db.cat.IndexType(ix.IndexType)
	if !ok {
		return nil, nil, fmt.Errorf("engine: indextype %s of index %s not found", ix.IndexType, ix.Name)
	}
	m, ok := s.db.reg.Methods(it.MethodsName)
	if !ok {
		return nil, nil, fmt.Errorf("engine: index methods %s not registered", it.MethodsName)
	}
	return m, it, nil
}

// infoFor builds the IndexInfo passed to ODCIIndex routines.
func infoFor(ix *catalog.Index, tbl *catalog.Table) extidx.IndexInfo {
	return extidx.IndexInfo{
		IndexName:  strings.ToUpper(ix.Name),
		TableName:  strings.ToUpper(ix.Table),
		ColumnName: strings.ToUpper(ix.Column),
		ColumnKind: tbl.Cols[ix.ColPos].Kind,
		Params:     ix.Params,
	}
}
