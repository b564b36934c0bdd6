package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("Load = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3},
		{9, 4}, {1 << 22, 22}, {1<<40 + 1, histBuckets - 1},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		s := h.Snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%d): %d populated buckets", c.v, len(s.Buckets))
		}
		if want := BucketUpperBound(c.want); s.Buckets[0].UpperBound != want {
			t.Errorf("Observe(%d) landed in bucket with ub=%d, want ub=%d",
				c.v, s.Buckets[0].UpperBound, want)
		}
	}
}

func TestHistogramSnapshotAndMean(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 16 {
		t.Fatalf("Count=%d Sum=%d, want 4/16", s.Count, s.Sum)
	}
	if got := s.Mean(); got != 4 {
		t.Fatalf("Mean = %v, want 4", got)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty Mean != 0")
	}
}

func TestPlannerStats(t *testing.T) {
	var p PlannerStats
	p.RecordPlan(3, "FULL")
	p.RecordPlan(2, "DOMAIN")
	p.RecordPlan(4, "DOMAIN")
	s := p.Snapshot()
	if s.Plans != 3 || s.Candidates != 9 {
		t.Fatalf("Plans=%d Candidates=%d, want 3/9", s.Plans, s.Candidates)
	}
	if s.ChosenByKind["DOMAIN"] != 2 || s.ChosenByKind["FULL"] != 1 {
		t.Fatalf("ChosenByKind = %v", s.ChosenByKind)
	}
}

func TestODCIStats(t *testing.T) {
	var o ODCIStats
	o.Record(CbFetch, 2*time.Microsecond)
	o.Record(CbFetch, time.Microsecond)
	o.Record(CbSelectivity, time.Microsecond)
	o.Record(Callback(-1), time.Second) // out of range: ignored
	o.ObserveFetchBatch(10)
	o.RecordScanTransport(true)
	o.RecordScanTransport(false)
	o.RecordScanTransport(false)

	s := o.Snapshot()
	fetch := s.Callbacks["ODCIIndexFetch"]
	if fetch.Calls != 2 || fetch.Nanos != 3000 {
		t.Fatalf("fetch stats = %+v", fetch)
	}
	if _, present := s.Callbacks["ODCIIndexCreate"]; present {
		t.Fatal("never-invoked callback present in snapshot")
	}
	if s.StateHandleScans != 1 || s.StateValueScans != 2 {
		t.Fatalf("transports = handle %d / value %d", s.StateHandleScans, s.StateValueScans)
	}
	if s.FetchBatch.Count != 1 || s.FetchBatch.Sum != 10 {
		t.Fatalf("fetch batch = %+v", s.FetchBatch)
	}

	if out := s.String(); !strings.Contains(out, "ODCIIndexFetch") {
		t.Fatalf("String() = %q", out)
	}
}

func TestCallbackStringNames(t *testing.T) {
	want := map[Callback]string{
		CbCreate:      "ODCIIndexCreate",
		CbFetch:       "ODCIIndexFetch",
		CbSelectivity: "ODCIStatsSelectivity",
		CbCollect:     "ODCIStatsCollect",
	}
	for cb, name := range want {
		if cb.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(cb), cb.String(), name)
		}
	}
	if s := numCallbacks.String(); !strings.Contains(s, "Callback(") {
		t.Errorf("out-of-range String() = %q", s)
	}
}

func TestQueryTraceRender(t *testing.T) {
	tr := NewQueryTrace("SELECT 1")
	scan := tr.Node("TABLE ACCESS FULL T", 100)
	scan.Rows = 42
	scan.Nanos = int64(3 * time.Millisecond)
	root := tr.Node("SELECT STATEMENT", -1)
	root.Rows = 42
	tr.Rows = 42
	tr.Elapsed = 5 * time.Millisecond
	tr.Candidates = []PlanCandidate{
		{Kind: "FULL", Desc: "TABLE ACCESS FULL T", Cost: 10, EstRows: 100, Selectivity: 1, Chosen: false},
		{Kind: "DOMAIN", Desc: "DOMAIN INDEX IDX", Cost: 2, EstRows: 4, Selectivity: 0.04, Chosen: true},
	}

	lines := tr.Render()
	out := strings.Join(lines, "\n")
	// Root first (top-down), child indented underneath.
	if !strings.HasPrefix(lines[0], "SELECT STATEMENT") {
		t.Fatalf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  TABLE ACCESS FULL T (est=100.0 rows=42") {
		t.Fatalf("second line = %q", lines[1])
	}
	for _, want := range []string{
		"CANDIDATE ACCESS PATHS:",
		"* DOMAIN INDEX IDX cost=2.00 estRows=4.0 sel=0.0400",
		"rows returned: 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	// The root has no estimate: no "est=" on its line.
	if strings.Contains(lines[0], "est=") {
		t.Errorf("root line carries an estimate: %q", lines[0])
	}

	if c, ok := tr.ChosenCandidate(); !ok || c.Kind != "DOMAIN" {
		t.Fatalf("ChosenCandidate = %+v, %v", c, ok)
	}

	tr.Err = "boom"
	if out := strings.Join(tr.Render(), "\n"); !strings.Contains(out, "error: boom") {
		t.Fatalf("error render:\n%s", out)
	}
}

// TestStatsAggregatesConcurrent calls every recording method of every
// live aggregate from 8 goroutines at once, all on the same counters,
// and requires exact totals. Run under -race it fails on any field
// updated without the atomic helpers, however rarely the engine's own
// paths would make two updates meet.
func TestStatsAggregatesConcurrent(t *testing.T) {
	const goroutines, perG = 8, 500
	var (
		conflicts ConflictStats
		execs     ExecStats
		planner   PlannerStats
		odci      ODCIStats
		waits     WaitStats
	)
	odci.AttachWaits(&waits)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				conflicts.RecordAbort("T")
				conflicts.RecordAbort("")
				execs.ExchangeStarted()
				execs.MorselDispatched()
				execs.AddWorkerBusy(3)
				planner.RecordPlan(4, "DOMAIN")
				odci.Record(CbFetch, 5)
				odci.ObserveFetchBatch(6)
				odci.RecordScanTransport(true)
				odci.RecordScanTransport(false)
				waits.Record(WaitTableLock, 7)
				waits.RecordAux(WaitPagerLatch, 8, "shard=0")
				waits.StartWait(WaitMutationWindow).Done()
			}
		}()
	}
	wg.Wait()

	const n = goroutines * perG
	check := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}
	cs := conflicts.Snapshot()
	check("conflict aborts", cs.Aborts, 2*n)
	check("conflict aborts on T", cs.ByTable["T"], n)
	es := execs.Snapshot()
	check("exchanges", es.Exchanges, n)
	check("morsels dispatched", es.MorselsDispatched, n)
	check("worker busy nanos", es.WorkerBusyNanos, 3*n)
	ps := planner.Snapshot()
	check("plans", ps.Plans, n)
	check("candidates", ps.Candidates, 4*n)
	check("DOMAIN chosen", ps.ChosenByKind["DOMAIN"], n)
	ds := odci.Snapshot()
	check("fetch calls", ds.Callbacks[CbFetch.String()].Calls, n)
	check("fetch nanos", ds.Callbacks[CbFetch.String()].Nanos, 5*n)
	check("fetch batches", ds.FetchBatch.Count, n)
	check("fetch batch rids", ds.FetchBatch.Sum, 6*n)
	check("handle scans", ds.StateHandleScans, n)
	check("value scans", ds.StateValueScans, n)
	ws := waits.Snapshot()
	check("ODCICallback waits", ws.Classes["ODCICallback"].Count, n)
	check("ODCICallback wait nanos", ws.Classes["ODCICallback"].TotalNanos, 5*n)
	check("TableLock waits", ws.Classes["TableLock"].Count, n)
	check("TableLock wait nanos", ws.Classes["TableLock"].TotalNanos, 7*n)
	check("PagerLatch waits", ws.Classes["PagerLatch"].Count, n)
	check("PagerLatch wait nanos", ws.Classes["PagerLatch"].TotalNanos, 8*n)
	check("MutationWindow waits", ws.Classes["MutationWindow"].Count, n)
	check("wait histogram", ws.Durations.Count, 4*n)
}
