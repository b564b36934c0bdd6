// Package extidx defines the extensible indexing framework — the primary
// contribution of the paper. It is the Go analogue of Oracle8i's ODCIIndex
// and ODCIStats interfaces:
//
//   - IndexMethods bundles the index definition (Create/Alter/Truncate/
//     Drop), index maintenance (Insert/Update/Delete) and index scan
//     (Start/Fetch/Close) routines an indextype designer implements.
//   - StatsMethods carries the optional optimizer extensions
//     (ODCIStatsSelectivity / ODCIStatsIndexCost).
//   - Server is the callback session handed to every routine: cartridge
//     code stores its index data *inside the database* by executing SQL
//     against engine tables through it ("server callbacks"), which is what
//     gives domain indexes transactional semantics, concurrency control
//     and buffering for free.
//   - CallbackMode enforces the paper's callback restrictions: maintenance
//     routines cannot run DDL or update the base table; scan routines may
//     only query.
//   - ScanState models the two scan-context transports the paper
//     describes: "return state" (the state rides along with every call)
//     and "return handle" (the state parks in a workspace and only a
//     handle crosses the interface).
//
// The engine (internal/engine) invokes these routines implicitly: index
// DDL calls the definition routines, DML on the base table calls the
// maintenance routines, and the optimizer-selected domain index scan
// drives Start/Fetch/Close as a pipelined row source.
package extidx

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/loblib"
	"repro/internal/obs"
	"repro/internal/types"
)

// IndexInfo is the domain-index metadata passed to every ODCIIndex
// routine: which index this is, which table and column it covers, and the
// PARAMETERS string from CREATE/ALTER INDEX (uninterpreted by the engine).
type IndexInfo struct {
	IndexName  string
	TableName  string
	ColumnName string
	ColumnKind types.Kind
	Params     string
}

// DataTableName returns the conventional name for an index data table
// backing this domain index ("DR$<index>$<suffix>", following the naming
// scheme Oracle interMedia Text uses).
func (ii IndexInfo) DataTableName(suffix string) string {
	if suffix == "" {
		return "DR$" + strings.ToUpper(ii.IndexName)
	}
	return "DR$" + strings.ToUpper(ii.IndexName) + "$" + strings.ToUpper(suffix)
}

// NoParams is the PARAMETERS check of ODCIIndexCreate and ODCIIndexAlter
// for an indextype that defines no directives: any non-blank string is
// an error, so a misspelt or misplaced directive is not silently ignored.
func NoParams(indexType, params string) error {
	if strings.TrimSpace(params) != "" {
		return fmt.Errorf("%s takes no PARAMETERS, got %q", indexType, params)
	}
	return nil
}

// CompareOp is the relational operator relating a user-operator invocation
// to a bound value in a predicate: op(...) relop <value>.
type CompareOp int

// Comparison operators accepted in operator predicates (§2.4.2).
const (
	CmpEQ CompareOp = iota
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String renders the comparison operator as SQL.
func (c CompareOp) String() string {
	switch c {
	case CmpEQ:
		return "="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}

// OperatorCall describes the operator predicate a scan must evaluate:
// the operator name, its non-column arguments (the indexed column itself
// is not materialized for an index scan), and the bound on the operator's
// return value. For boolean-style operators such as Contains the engine
// normalizes the predicate to Relop=CmpEQ, Bound=1.
type OperatorCall struct {
	Name  string
	Args  []types.Value
	Relop CompareOp
	Bound types.Value
}

// WantsTrue reports whether the predicate asks for rows where the
// operator returns a truthy (= 1) value — the common Contains-style form.
func (oc OperatorCall) WantsTrue() bool {
	return oc.Relop == CmpEQ && oc.Bound.Kind() == types.KindNumber && oc.Bound.Float() == 1
}

// AcceptsReturn reports whether a given operator return value satisfies
// the predicate bound. Index implementations that compute exact operator
// values use it to filter before returning RIDs.
func (oc OperatorCall) AcceptsReturn(v types.Value) bool {
	c, ok := types.Compare(v, oc.Bound)
	if !ok {
		return false
	}
	switch oc.Relop {
	case CmpEQ:
		return c == 0
	case CmpLT:
		return c < 0
	case CmpLE:
		return c <= 0
	case CmpGT:
		return c > 0
	case CmpGE:
		return c >= 0
	}
	return false
}

// CallbackMode restricts what a callback session may do (§2.5).
type CallbackMode int

// Callback modes.
const (
	// ModeDefinition is used for Create/Alter/Truncate/Drop routines:
	// no restrictions ("There are no restrictions on the index definition
	// routines").
	ModeDefinition CallbackMode = iota
	// ModeMaintenance is used for Insert/Update/Delete routines: DML
	// against index data tables is allowed, but DDL is forbidden and the
	// base table of the index must not be written.
	ModeMaintenance
	// ModeScan is used for Start/Fetch/Close: only queries are allowed.
	ModeScan
)

// String names the mode for error messages.
func (m CallbackMode) String() string {
	switch m {
	case ModeDefinition:
		return "definition"
	case ModeMaintenance:
		return "maintenance"
	case ModeScan:
		return "scan"
	}
	return "unknown"
}

// Server is the callback session the engine hands to every indextype
// routine. SQL executed through it runs inside the invoking statement's
// transaction and snapshot, so index data stays consistent with the base
// table (§2.5). The engine enforces the CallbackMode restrictions.
type Server interface {
	// Mode reports which restriction regime this session runs under.
	Mode() CallbackMode
	// Query executes a SQL query callback and returns all result rows.
	Query(sqlText string, args ...types.Value) ([][]types.Value, error)
	// Exec executes a DML or DDL callback, returning the affected row
	// count. DDL is rejected outside ModeDefinition; any statement other
	// than a query is rejected in ModeScan; writes to the protected base
	// table are rejected in ModeMaintenance.
	Exec(sqlText string, args ...types.Value) (int64, error)
	// LOBs returns the database LOB store, for indextypes that keep their
	// index data in LOBs (the chemistry cartridge pattern, §3.2.4). The
	// engine hands out a transactional view: writes made through it are
	// undo-logged with the invoking statement's transaction, so LOB-
	// resident index data rolls back together with the base table.
	LOBs() loblib.Store
	// Workspace returns the scan-context workspace for handle-based scan
	// state (§2.2.3 "Return Handle").
	Workspace() *Workspace
	// RowCountEstimate returns the dictionary's row-count statistic for a
	// table (Oracle's NUM_ROWS). Stats callbacks use it instead of
	// scanning: cost estimation must not cost more than the query.
	RowCountEstimate(table string) (float64, error)
	// OnTxnCommit registers fn to run if the current transaction commits.
	// Indextypes with external index stores use this (with OnTxnRollback)
	// to implement the database-event mechanism of §5.
	OnTxnCommit(fn func())
	// OnTxnRollback registers fn to run if the current transaction rolls
	// back.
	OnTxnRollback(fn func())
}

// ScanState is the scan context threaded through Start → Fetch* → Close.
// The two implementations mirror the paper's transports.
type ScanState interface{ isScanState() }

// StateValue is the "return state" transport: the whole context is passed
// in and out of every scan routine. Appropriate when the state is small.
type StateValue struct{ V any }

func (StateValue) isScanState() {}

// StateHandle is the "return handle" transport: the context lives in the
// session workspace and only this handle crosses the interface.
// Appropriate when the state is large (e.g. a precomputed result subset).
type StateHandle struct{ H int64 }

func (StateHandle) isScanState() {}

// FetchResult is what ODCIIndexFetch returns: a batch of row identifiers
// (packed RIDs), optional per-row ancillary values (e.g. text scores,
// exposed through ancillary operators), and whether the scan is done.
// A Done result with no RIDs corresponds to Oracle's null-rowid
// end-of-scan convention.
type FetchResult struct {
	RIDs      []int64
	Ancillary []types.Value
	Done      bool
}

// Validate checks the Fetch contract: a non-nil Ancillary slice must
// parallel RIDs exactly, one value per row. A short slice would
// otherwise make missing entries silently read as zero values at
// whatever layer happens to consume them; the violation is reported at
// the extidx boundary instead, naming the cartridge's mistake.
func (fr FetchResult) Validate() error {
	if fr.Ancillary != nil && len(fr.Ancillary) != len(fr.RIDs) {
		return fmt.Errorf("extidx: fetch contract violation: %d RIDs with %d ancillary values",
			len(fr.RIDs), len(fr.Ancillary))
	}
	return nil
}

// IndexMethods is the ODCIIndex interface: everything an indextype
// designer must implement. The engine invokes these routines implicitly.
type IndexMethods interface {
	// Create builds the index storage (typically index data tables created
	// and populated through s.Exec / s.Query) for a new domain index.
	Create(s Server, info IndexInfo) error
	// Alter reacts to ALTER INDEX ... PARAMETERS; newParams is the new
	// parameter string.
	Alter(s Server, info IndexInfo, newParams string) error
	// Truncate empties the index data (invoked when the base table is
	// truncated).
	Truncate(s Server, info IndexInfo) error
	// Drop removes all index storage.
	Drop(s Server, info IndexInfo) error

	// Insert maintains the index for a newly inserted row.
	Insert(s Server, info IndexInfo, rid int64, newVal types.Value) error
	// Update maintains the index for an updated row; both the old and new
	// column values are supplied, as in ODCIIndexUpdate.
	Update(s Server, info IndexInfo, rid int64, oldVal, newVal types.Value) error
	// Delete maintains the index for a deleted row.
	Delete(s Server, info IndexInfo, rid int64, oldVal types.Value) error

	// Start begins an index scan evaluating the operator predicate and
	// returns the scan context.
	Start(s Server, info IndexInfo, call OperatorCall) (ScanState, error)
	// Fetch returns up to maxRows row identifiers satisfying the
	// predicate; maxRows <= 0 lets the implementation pick its batch size.
	Fetch(s Server, state ScanState, maxRows int) (FetchResult, ScanState, error)
	// Close releases the scan context.
	Close(s Server, state ScanState) error
}

// ParallelMethods is the optional parallel-scan extension of
// IndexMethods — the analogue of ODCIIndexStart for a parallelized
// scan. A cartridge opts into parallel domain scans by implementing it;
// the planner falls back to the serial Start/Fetch/Close protocol
// otherwise.
//
// Contract: StartParallel runs on the statement's goroutine and may use
// the server callback freely — all shared work (query evaluation,
// result-set construction) belongs here. It returns between 1 and
// maxParts scan partitions whose Fetch streams, taken together, are a
// partitioning of what the serial scan for the same call would return
// (no duplicates, nothing missing; cross-partition order is
// unspecified). Each partition is then fetched and closed by its own
// worker goroutine, concurrently with the others, so partition Fetch
// and Close must not touch shared mutable state and must not call back
// into the Server unless the cartridge synchronizes those calls itself.
type ParallelMethods interface {
	// StartParallel begins a partitioned index scan for the operator
	// predicate, returning at most maxParts (>= 1) scan partitions.
	StartParallel(s Server, info IndexInfo, call OperatorCall, maxParts int) ([]ScanState, error)
}

// Cost is the optimizer cost estimate returned by StatsMethods.IndexCost,
// mirroring ODCIStatsIndexCost's I/O + CPU decomposition.
type Cost struct {
	IO  float64 // page reads
	CPU float64 // abstract per-row work units
}

// Total folds the cost into one comparable number, weighting I/O the way
// the engine's optimizer does.
func (c Cost) Total() float64 { return c.IO + c.CPU/1000 }

// StatsCollector is optionally implemented alongside StatsMethods: the
// analogue of ODCIStatsCollect/Delete, invoked by ANALYZE so the
// indextype can (re)gather whatever statistics its Selectivity and
// IndexCost functions consume.
type StatsCollector interface {
	// Collect refreshes the indextype's statistics for one domain index.
	Collect(s Server, info IndexInfo) error
}

// StatsMethods is the ODCIStats extension: user-supplied selectivity and
// cost functions consulted by the cost-based optimizer when deciding
// between a domain index scan and other access paths (§2.4.2).
type StatsMethods interface {
	// Selectivity estimates the fraction of base-table rows satisfying
	// the operator predicate, in [0, 1].
	Selectivity(s Server, info IndexInfo, call OperatorCall) (float64, error)
	// IndexCost estimates the cost of a domain index scan for the
	// predicate given the engine's selectivity estimate.
	IndexCost(s Server, info IndexInfo, call OperatorCall, selectivity float64) (Cost, error)
}

// ---------------------------------------------------------------------------
// Registry

// Registry maps implementation names (the USING clause of CREATE
// INDEXTYPE) to registered Go implementations. It plays the role of
// Oracle's schema-resident implementation types: cartridge code registers
// its IndexMethods under a name, and SQL references that name.
type Registry struct {
	mu      sync.RWMutex
	methods map[string]IndexMethods
	stats   map[string]StatsMethods
	funcs   map[string]Function
	// obs, when set, makes Methods and Stats hand out instrumented
	// wrappers that time every ODCI callback (see instrument.go).
	obs *obs.ODCIStats
}

// Function is a registered SQL-callable function: the functional
// implementation of operators ("if the optimizer does not choose the
// domain index scan ... the evaluation of the operator transforms to
// execution of this function").
type Function func(args []types.Value) (types.Value, error)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		methods: make(map[string]IndexMethods),
		stats:   make(map[string]StatsMethods),
		funcs:   make(map[string]Function),
	}
}

// RegisterMethods registers an IndexMethods implementation under name.
func (r *Registry) RegisterMethods(name string, m IndexMethods) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToUpper(name)
	if _, dup := r.methods[key]; dup {
		return fmt.Errorf("extidx: index methods %q already registered", name)
	}
	r.methods[key] = m
	return nil
}

// RegisterStats registers a StatsMethods implementation under name.
func (r *Registry) RegisterStats(name string, s StatsMethods) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToUpper(name)
	if _, dup := r.stats[key]; dup {
		return fmt.Errorf("extidx: stats methods %q already registered", name)
	}
	r.stats[key] = s
	return nil
}

// RegisterFunction registers a SQL-callable function under name.
func (r *Registry) RegisterFunction(name string, f Function) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToUpper(name)
	if _, dup := r.funcs[key]; dup {
		return fmt.Errorf("extidx: function %q already registered", name)
	}
	r.funcs[key] = f
	return nil
}

// SetObserver installs the ODCI-boundary stats aggregate. Once set,
// Methods and Stats return instrumented wrappers that count and time
// every callback. Wrappers are stateless, so wrapping per-resolve is
// cheap and race-free.
func (r *Registry) SetObserver(o *obs.ODCIStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = o
}

// Methods resolves an IndexMethods implementation by name.
func (r *Registry) Methods(name string) (IndexMethods, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.methods[strings.ToUpper(name)]
	if ok && r.obs != nil {
		m = instrumentMethods(m, r.obs)
	}
	return m, ok
}

// Stats resolves a StatsMethods implementation by name.
func (r *Registry) Stats(name string) (StatsMethods, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.stats[strings.ToUpper(name)]
	if ok && r.obs != nil {
		s = instrumentStats(s, r.obs)
	}
	return s, ok
}

// Function resolves a registered function by name.
func (r *Registry) Function(name string) (Function, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[strings.ToUpper(name)]
	return f, ok
}

// ---------------------------------------------------------------------------
// Workspace

// Workspace is the scan-context store behind StateHandle. It is
// per-database; entries are keyed by handle and freed by ODCIIndexClose.
// (The paper describes it as "a temporary workspace, primarily memory
// resident, but can be paged to disk, allocated for the duration of the
// statement".)
type Workspace struct {
	mu      sync.Mutex
	entries map[int64]any
	next    int64
	// HighWater tracks the maximum simultaneous entries, for tests and
	// leak detection.
	HighWater int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{entries: make(map[int64]any), next: 1}
}

// Alloc parks v in the workspace and returns its handle.
func (w *Workspace) Alloc(v any) StateHandle {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.next
	w.next++
	w.entries[h] = v
	if len(w.entries) > w.HighWater {
		w.HighWater = len(w.entries)
	}
	return StateHandle{H: h}
}

// Get returns the entry for a handle.
func (w *Workspace) Get(h StateHandle) (any, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v, ok := w.entries[h.H]
	if !ok {
		return nil, fmt.Errorf("extidx: no workspace entry for handle %d", h.H)
	}
	return v, nil
}

// Set replaces the entry for a handle (incremental scans update their
// parked state in place).
func (w *Workspace) Set(h StateHandle, v any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.entries[h.H]; !ok {
		return fmt.Errorf("extidx: no workspace entry for handle %d", h.H)
	}
	w.entries[h.H] = v
	return nil
}

// Free releases the entry for a handle.
func (w *Workspace) Free(h StateHandle) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.entries, h.H)
}

// Live reports the number of parked entries (leak checks).
func (w *Workspace) Live() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// Stats reports the current live entry count and the high-water mark
// under one lock acquisition (the metrics snapshot uses it).
func (w *Workspace) Stats() (live, high int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries), w.HighWater
}
