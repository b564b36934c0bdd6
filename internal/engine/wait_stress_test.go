package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// slowSink is a WAL sink whose fsync costs a fixed simulated device
// latency, the same trick internal/bench's W1 uses: MemWALSink syncs
// instantaneously, so without it group commit never forms a group and
// the WALGroupFsync wait class would only ever see near-zero leader
// intervals.
type slowSink struct {
	*storage.MemWALSink
	latency time.Duration
}

func (s *slowSink) Sync() error {
	time.Sleep(s.latency)
	return s.MemWALSink.Sync()
}

// TestWaitEventsUnderWriterStorm is the acceptance workload for the
// wait-event table: 16 autocommit writers against a 1 ms fsync must
// leave real blocked time in WALGroupFsync (followers waiting out a
// covering fsync) and AdmissionShared, fire the WALAppend and
// MutationWindow classes, and leave commit and group-fsync events in
// the flight recorder.
func TestWaitEventsUnderWriterStorm(t *testing.T) {
	db, err := Open(Options{
		Backend:        storage.NewMemBackend(),
		WALSink:        &slowSink{MemWALSink: storage.NewMemWALSink(), latency: time.Millisecond},
		CacheSizePages: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	const writers, perWriter = 16, 12
	setup := db.NewSession()
	for w := 0; w < writers; w++ {
		mustExec(t, setup, fmt.Sprintf(`CREATE TABLE S%d(id NUMBER)`, w))
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Exec(fmt.Sprintf(`INSERT INTO S%d VALUES (%d)`, w, i)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	m := db.Metrics()
	for _, class := range []string{"AdmissionShared", "WALGroupFsync"} {
		wc := m.Waits.Classes[class]
		if wc.Count == 0 || wc.TotalNanos == 0 {
			t.Errorf("wait class %s dead under 16-writer storm: %+v\n%s", class, wc, m.Waits)
		}
	}
	for _, class := range []string{"WALAppend", "MutationWindow"} {
		if m.Waits.Classes[class].Count == 0 {
			t.Errorf("wait class %s never fired: %+v", class, m.Waits.Classes)
		}
	}
	if m.Waits.Durations.Count == 0 {
		t.Error("all-class duration histogram empty")
	}

	// The storm's waits lead the rendered report.
	out := m.String()
	if !strings.Contains(out, "waits (top by total time):") ||
		!strings.Contains(out, "WALGroupFsync") || !strings.Contains(out, "AdmissionShared") {
		t.Errorf("Metrics.String() missing wait breakdown:\n%s", out)
	}
	if top := m.Waits.TopWaits(3); len(top) == 0 {
		t.Error("TopWaits empty after storm")
	}

	// The flight recorder saw the storm: commits and shared fsyncs.
	var commits, groupFsyncs int
	for _, e := range db.FlightRecorder().Events() {
		switch e.Kind {
		case obs.EvCommit:
			commits++
		case obs.EvGroupFsync:
			groupFsyncs++
			if e.A < 1 || e.B <= 0 {
				t.Errorf("group-fsync event with empty payload: %+v", e)
			}
		}
	}
	if commits == 0 || groupFsyncs == 0 {
		t.Errorf("flight recorder missed the storm: commits=%d groupFsyncs=%d", commits, groupFsyncs)
	}
	if m.FlightEvents == 0 {
		t.Error("FlightEvents gauge dead")
	}
	if err := db.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteConflictAbortMetric pins satellite #2: a statement aborted by
// storage.ErrWriteConflict increments the conflict counter with a
// per-table attribution and leaves a tagged event in the flight
// recorder.
func TestWriteConflictAbortMetric(t *testing.T) {
	db := newWALDB(t)
	a, b := db.NewSession(), db.NewSession()
	mustExec(t, a, `CREATE TABLE Orders(k NUMBER)`)

	before := db.Metrics().Conflicts
	mustExec(t, a, `BEGIN`)
	mustExec(t, a, `INSERT INTO Orders VALUES (1)`)
	if _, err := b.Exec(`INSERT INTO Orders VALUES (2)`); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("got %v, want ErrWriteConflict", err)
	}
	mustExec(t, a, `COMMIT`)

	m := db.Metrics()
	if d := m.Conflicts.Aborts - before.Aborts; d != 1 {
		t.Fatalf("conflict aborts grew by %d, want 1", d)
	}
	if d := m.Conflicts.ByTable["ORDERS"] - before.ByTable["ORDERS"]; d != 1 {
		t.Fatalf("per-table conflict breakdown grew by %d (now %v), want ORDERS+1", d, m.Conflicts.ByTable)
	}
	if !strings.Contains(m.String(), "conflicts: aborts=1") {
		t.Errorf("Metrics.String() missing conflict line:\n%s", m.String())
	}

	var tagged bool
	for _, e := range db.FlightRecorder().Events() {
		if e.Kind == obs.EvWriteConflict && e.Tag == "ORDERS" {
			tagged = true
		}
	}
	if !tagged {
		t.Errorf("no write-conflict flight event for ORDERS in:\n%s",
			strings.Join(db.FlightRecorder().Dump(), "\n"))
	}
}

// TestSlowQueryHookCarriesWaitsAndFlight: a hooked trace includes the
// query's wait-event delta (the domain scan's ODCI callback time at
// minimum) and the flight-recorder tail, and Render shows both.
func TestSlowQueryHookCarriesWaitsAndFlight(t *testing.T) {
	db, s := kwSetup(t)
	var got *obs.QueryTrace
	db.SetSlowQueryHook(0, func(tr *obs.QueryTrace) { got = tr })
	mustQuery(t, s, `SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	if got == nil {
		t.Fatal("hook never fired")
	}
	if wc := got.Waits.Classes["ODCICallback"]; wc.Count == 0 {
		t.Fatalf("trace wait delta missing the domain scan's ODCI callbacks: %+v", got.Waits.Classes)
	}
	// kwSetup's DDL and inserts precede the query, so the tail cannot be
	// empty.
	if len(got.Flight) == 0 {
		t.Fatal("slow-query trace carries no flight-recorder tail")
	}
	out := strings.Join(got.Render(), "\n")
	if !strings.Contains(out, "WAIT EVENTS:") || !strings.Contains(out, "ODCICallback") {
		t.Errorf("rendered trace missing wait breakdown:\n%s", out)
	}
	if !strings.Contains(out, "FLIGHT RECORDER (recent events):") {
		t.Errorf("rendered trace missing flight tail:\n%s", out)
	}
}

// TestExplainAnalyzeParallelDomainWaitBreakdown: EXPLAIN ANALYZE on a
// parallel domain query renders the per-query wait breakdown — the ODCI
// boundary always, and (with workers handing chunks to one consumer)
// usually exchange idle time too.
func TestExplainAnalyzeParallelDomainWaitBreakdown(t *testing.T) {
	db := newDB(t)
	m := &kwParallelMethods{}
	s := setupKwParallel(t, db, m)
	s.SetForcedPath(ForceDomainScan)
	s.SetParallel(4)

	plan := flattenPlan(mustQuery(t, s, `EXPLAIN ANALYZE SELECT id FROM Corpus WHERE HasKw(body, 'needle') = 1`))
	if !strings.Contains(plan, "parallel=") {
		t.Fatalf("query did not go parallel:\n%s", plan)
	}
	if !strings.Contains(plan, "WAIT EVENTS:") {
		t.Fatalf("EXPLAIN ANALYZE missing WAIT EVENTS section:\n%s", plan)
	}
	if !strings.Contains(plan, "ODCICallback") {
		t.Errorf("wait breakdown missing ODCICallback:\n%s", plan)
	}
	// The exchange class belongs to the whole DB table, not just this
	// query; it must at least have fired by now.
	met := db.Metrics()
	if met.Waits.Classes["ExchangeWorkerIdle"].Count == 0 {
		t.Errorf("ExchangeWorkerIdle never fired during a parallel scan: %+v",
			met.Waits.Classes)
	}
	// The parallel-executor counters must reach DB.Metrics() too.
	if met.Exec.Exchanges == 0 || met.Exec.MorselsDispatched == 0 || met.Exec.WorkerBusyNanos == 0 {
		t.Errorf("parallel-executor counters disconnected after a parallel scan: %+v", met.Exec)
	}
}

// TestCheckpointBlockedWait: a refused checkpoint counts as a
// CheckpointBlocked wait and leaves a "refused" event in the ring.
func TestCheckpointBlockedWait(t *testing.T) {
	db := newWALDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE T(k NUMBER)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO T VALUES (1)`)
	if err := db.Checkpoint(); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("Checkpoint with writer open: %v, want ErrTxnOpen", err)
	}
	mustExec(t, s, `COMMIT`)

	if db.Metrics().Waits.Classes["CheckpointBlocked"].Count == 0 {
		t.Error("CheckpointBlocked wait not recorded")
	}
	var refused bool
	for _, e := range db.FlightRecorder().Events() {
		if e.Kind == obs.EvCheckpoint && e.Tag == "refused" {
			refused = true
		}
	}
	if !refused {
		t.Errorf("no refused-checkpoint flight event in:\n%s",
			strings.Join(db.FlightRecorder().Dump(), "\n"))
	}
}

// TestDDLFlightEvents: DDL statements leave kind-tagged events.
func TestDDLFlightEvents(t *testing.T) {
	db, _ := kwSetup(t)
	tags := map[string]bool{}
	for _, e := range db.FlightRecorder().Events() {
		if e.Kind == obs.EvDDL {
			tags[e.Tag] = true
		}
	}
	for _, want := range []string{"CreateTable", "CreateIndex"} {
		if !tags[want] {
			t.Errorf("no %s DDL flight event (have %v)", want, tags)
		}
	}
}

// TestLeakCheckFailureIncludesFlightDump: a LeakCheck failure carries
// the flight-recorder tail so the offending workload phase is visible
// in the error itself.
func TestLeakCheckFailureIncludesFlightDump(t *testing.T) {
	db := newWALDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE T(k NUMBER)`)
	mustExec(t, s, `INSERT INTO T VALUES (1)`)

	// Pin a page directly so the check fails; unpin before Close.
	pg, err := db.pager.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.pager.Unpin(pg, false)
	err = db.LeakCheck()
	if err == nil {
		t.Fatal("LeakCheck passed with a pinned page")
	}
	if !strings.Contains(err.Error(), "flight recorder (last") {
		t.Errorf("LeakCheck error missing flight dump:\n%v", err)
	}
	if !strings.Contains(err.Error(), "commit") {
		t.Errorf("flight dump missing the preceding commits:\n%v", err)
	}
}
