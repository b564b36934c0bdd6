// Package extdb is an embedded relational database for Go whose defining
// feature is extensible indexing: the framework of the ICDE 2000 paper
// "Extensible Indexing: A Framework for Integrating Domain-Specific
// Indexing Schemes into Oracle8i", reproduced in full.
//
// Users register domain-specific operators and indexing schemes
// ("indextypes") whose implementation is a set of ODCIIndex-style
// callback routines, then use plain SQL:
//
//	db, _ := extdb.Open(extdb.Options{})
//	defer db.Close()
//	s := db.NewSession()
//	extdb.InstallTextCartridge(db, s)
//
//	s.Exec(`CREATE TABLE Employees(name VARCHAR2, id NUMBER, resume VARCHAR2)`)
//	s.Exec(`CREATE INDEX ResumeTextIndex ON Employees(resume)
//	        INDEXTYPE IS TextIndexType PARAMETERS (':Language English :Ignore the a an')`)
//	rs, _ := s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'Oracle AND UNIX')`)
//
// The engine invokes the registered index routines implicitly: index DDL
// calls the definition routines, DML maintains every domain index on the
// table, and the cost-based optimizer — consulting user-supplied
// selectivity and cost callbacks — may evaluate operator predicates with
// a pipelined domain index scan instead of the operator's functional
// implementation.
//
// Four complete data cartridges ship with the library, mirroring the
// paper's case studies: full-text search (Contains/Score), spatial
// (Sdo_Relate/Sdo_Filter over a tile index or an external R-tree),
// content-based image retrieval (VIRSimilar, three-phase evaluation),
// and chemistry (substructure/similarity/tautomer search over LOB- or
// file-resident fingerprint indexes).
package extdb

import (
	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// Options configures Open.
type Options = engine.Options

// DB is a database instance. See engine.DB for the full method set.
type DB = engine.DB

// Session is a client session; it executes SQL and carries transaction
// state. Sessions are not safe for concurrent use; open one per
// goroutine.
type Session = engine.Session

// Result is the outcome of a non-query statement.
type Result = engine.Result

// ResultSet is a materialized query result.
type ResultSet = engine.ResultSet

// Value is a SQL value (NULL, NUMBER, VARCHAR2, BOOLEAN, LOB locator,
// OBJECT, VARRAY).
type Value = types.Value

// Open creates or opens a database. An empty Path means in-memory: the
// pages and the write-ahead log live in memory, every commit takes the
// same logged path a file database does, and nothing outlives the
// process.
func Open(opts Options) (*DB, error) { return engine.Open(opts) }

// ErrWALBroken is returned by commits after a write-ahead-log write has
// failed; the database refuses further commits (the log tail is suspect)
// until it is reopened, which recovers from the durable log prefix.
var ErrWALBroken = engine.ErrWALBroken

// ErrTxnOpen is returned by Checkpoint (and Close) while a write
// transaction is open: flushing uncommitted pages would durably commit
// them with no undo, so the checkpoint is refused.
var ErrTxnOpen = engine.ErrTxnOpen

// ErrWriteConflict is returned (wrapped) by a statement that dirtied a
// page frame another uncommitted transaction already modified. The
// statement has rolled back; the transaction remains usable and the
// statement can be retried after the other transaction finishes.
var ErrWriteConflict = storage.ErrWriteConflict

// Forced access paths for Session.SetForcedPath (optimizer hints).
const (
	ForceAuto       = engine.ForceAuto
	ForceFullScan   = engine.ForceFullScan
	ForceDomainScan = engine.ForceDomainScan
	ForceIndexScan  = engine.ForceIndexScan
)

// Value constructors.
var (
	// Null returns SQL NULL.
	Null = types.Null
	// Num returns a NUMBER value.
	Num = types.Num
	// Int returns an integral NUMBER value.
	Int = types.Int
	// Str returns a VARCHAR2 value.
	Str = types.Str
	// Bool returns a BOOLEAN value.
	Bool = types.Bool
	// Obj returns an OBJECT value.
	Obj = types.Obj
	// Arr returns a VARRAY value.
	Arr = types.Arr
)

// Extensible indexing framework types, for implementing new indextypes.
// An indextype author implements IndexMethods (and optionally
// StatsMethods), registers it with db.Registry(), and issues CREATE
// OPERATOR / CREATE INDEXTYPE DDL.
type (
	// IndexMethods is the ODCIIndex interface: index definition,
	// maintenance and scan routines.
	IndexMethods = extidx.IndexMethods
	// StatsMethods is the ODCIStats interface: optimizer selectivity and
	// cost callbacks.
	StatsMethods = extidx.StatsMethods
	// IndexInfo is the metadata handed to every index routine.
	IndexInfo = extidx.IndexInfo
	// OperatorCall describes the operator predicate a scan evaluates.
	OperatorCall = extidx.OperatorCall
	// Server is the restricted callback session index routines use to
	// store index data inside the database.
	Server = extidx.Server
	// ScanState is the scan context threaded through Start/Fetch/Close.
	ScanState = extidx.ScanState
	// StateValue is the pass-by-value scan context transport.
	StateValue = extidx.StateValue
	// StateHandle is the workspace-handle scan context transport.
	StateHandle = extidx.StateHandle
	// FetchResult is a batch of row identifiers from ODCIIndexFetch.
	FetchResult = extidx.FetchResult
	// Cost is an optimizer cost estimate.
	Cost = extidx.Cost
	// Function is a registered SQL-callable function.
	Function = extidx.Function
)

// PagerStats are buffer-pool I/O counters (logical and physical page
// traffic, plus WAL activity), exposed for instrumentation.
type PagerStats = storage.Stats

// Observability types (see DB.Metrics, DB.SetSlowQueryHook and
// Session.QueryTraced; EXPLAIN ANALYZE renders a QueryTrace as SQL
// output).
type (
	// Metrics is a full engine observability snapshot: pager/WAL, txn,
	// planner, ODCI-callback and engine counters in one inert struct.
	Metrics = engine.Metrics
	// QueryTrace is the per-query trace behind EXPLAIN ANALYZE and the
	// slow-query hook: candidate access paths with estimated cost and
	// selectivity, per-operator estimated vs actual rows and time, and
	// the query's pager/WAL footprint.
	QueryTrace = obs.QueryTrace
	// PlanCandidate is one costed access path inside a QueryTrace.
	PlanCandidate = obs.PlanCandidate
	// OpNode is one instrumented operator inside a QueryTrace.
	OpNode = obs.OpNode
	// WaitSnapshot is the wait-event table inside a Metrics snapshot:
	// per-class blocked-time counts, totals and maxima (see \waits in
	// cmd/extsql).
	WaitSnapshot = obs.WaitSnapshot
	// WaitCounts is one wait class's slice of a WaitSnapshot.
	WaitCounts = obs.WaitCounts
	// FlightRecorder is the always-on ring of recent engine events; read
	// it via DB.FlightRecorder.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one recorded engine event (commit, group fsync,
	// checkpoint, write-conflict abort, slow wait, DDL).
	FlightEvent = obs.FlightEvent
)
