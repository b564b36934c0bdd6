package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// kwSetup builds the keyword cartridge with its domain index in place —
// the workload every observability test below queries.
func kwSetup(t testing.TB) (*DB, *Session) {
	t.Helper()
	db := newDB(t)
	m := &kwMethods{failNext: map[string]bool{}}
	s := setupKwCartridge(t, db, m)
	mustExec(t, s, `CREATE INDEX DocKwIdx ON Docs(body) INDEXTYPE IS KwIndexType`)
	return db, s
}

func TestMetricsCoverEveryLayer(t *testing.T) {
	db, s := kwSetup(t)
	mustExec(t, s, `INSERT INTO Docs VALUES (50, 'indexed after create')`)
	mustQuery(t, s, `SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	mustQuery(t, s, `SELECT COUNT(*) FROM Docs`)

	m := db.Metrics()
	if m.Pager.Fetches == 0 || m.Pager.Hits == 0 {
		t.Errorf("pager counters dead: %+v", m.Pager)
	}
	if m.Txn.Begins == 0 || m.Txn.Commits == 0 {
		t.Errorf("txn counters dead: %+v", m.Txn)
	}
	if m.Planner.Plans == 0 || m.Planner.Candidates == 0 {
		t.Errorf("planner counters dead: %+v", m.Planner)
	}
	if m.Planner.ChosenByKind["DOMAIN"] == 0 {
		t.Errorf("no DOMAIN plan recorded: %v", m.Planner.ChosenByKind)
	}
	if m.Engine.Selects == 0 {
		t.Errorf("engine counters dead: %+v", m.Engine)
	}
	cb := m.ODCI.Callbacks
	for _, name := range []string{"ODCIIndexCreate", "ODCIIndexInsert", "ODCIIndexStart",
		"ODCIIndexFetch", "ODCIIndexClose", "ODCIStatsSelectivity", "ODCIStatsIndexCost"} {
		if cb[name].Calls == 0 {
			t.Errorf("ODCI callback %s never counted (have %v)", name, cb)
		}
	}
	if cb["ODCIIndexFetch"].Nanos == 0 {
		t.Error("ODCIIndexFetch wall time not accumulated")
	}
	if m.ODCI.FetchBatch.Count == 0 {
		t.Error("fetch batch histogram empty")
	}
	if m.ODCI.StateValueScans == 0 {
		t.Errorf("scan transport split dead: %+v", m.ODCI)
	}

	// The rendered report mentions every section.
	out := m.String()
	for _, want := range []string{"pager:", "wal:", "txn:", "engine:", "planner:", "workspace:", "odci callbacks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Metrics.String() missing %q:\n%s", want, out)
		}
	}
}

func TestWorkspaceMetricsHighWater(t *testing.T) {
	db := newDB(t)
	m := &kwMethods{failNext: map[string]bool{}, useHandle: true}
	s := setupKwCartridge(t, db, m)
	mustExec(t, s, `CREATE INDEX DocKwIdx ON Docs(body) INDEXTYPE IS KwIndexType`)
	mustQuery(t, s, `SELECT id FROM Docs WHERE HasKw(body, 'unix')`)

	ms := db.Metrics()
	if ms.Workspace.Live != 0 {
		t.Errorf("workspace handles leaked: live=%d", ms.Workspace.Live)
	}
	if ms.Workspace.HighWater == 0 {
		t.Error("workspace high-water never moved despite handle-transport scans")
	}
	if ms.ODCI.StateHandleScans == 0 {
		t.Errorf("handle transport not counted: %+v", ms.ODCI)
	}
}

func TestQueryTraced(t *testing.T) {
	_, s := kwSetup(t)
	rs, tr, err := s.QueryTraced(`SELECT id FROM Docs WHERE HasKw(body, 'unix') ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("nil trace")
	}
	if tr.Rows != int64(len(rs.Rows)) || tr.Rows != 2 {
		t.Fatalf("trace rows = %d, result rows = %d", tr.Rows, len(rs.Rows))
	}
	if tr.Elapsed <= 0 {
		t.Error("trace elapsed not measured")
	}
	c, ok := tr.ChosenCandidate()
	if !ok {
		t.Fatalf("no chosen candidate in %+v", tr.Candidates)
	}
	if c.Kind != "DOMAIN" {
		t.Errorf("chosen kind = %s, want DOMAIN", c.Kind)
	}
	// The domain candidate carries the ODCIStatsSelectivity result: 2 of
	// 205 documents contain "unix".
	if c.Selectivity <= 0 || c.Selectivity >= 0.5 {
		t.Errorf("domain selectivity = %v", c.Selectivity)
	}
	if len(tr.Candidates) < 2 {
		t.Errorf("expected FULL and DOMAIN candidates, got %+v", tr.Candidates)
	}
	// Operator nodes: root must have drained exactly the result rows; the
	// table access node must carry the estimate.
	if len(tr.Ops) == 0 {
		t.Fatal("no instrumented operators")
	}
	root := tr.Ops[len(tr.Ops)-1]
	if root.Desc != "SELECT STATEMENT" || root.Rows != 2 {
		t.Errorf("root op = %+v", root)
	}
	scan := tr.Ops[0]
	if scan.EstRows < 0 {
		t.Errorf("table access node lost its estimate: %+v", scan)
	}
	if tr.Pager.PagerFetches == 0 {
		t.Errorf("pager delta not attributed: %+v", tr.Pager)
	}

	// Non-select statements refuse tracing.
	if _, _, err := s.QueryTraced(`INSERT INTO Docs VALUES (99, 'x')`); err == nil {
		t.Error("QueryTraced accepted a non-select")
	}
}

func TestExplainListsCandidatePaths(t *testing.T) {
	_, s := kwSetup(t)
	rs := mustQuery(t, s, `EXPLAIN PLAN FOR SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	if !strings.Contains(rs.Rows[0][0].Text(), "DOMAIN INDEX DOCKWIDX") {
		t.Fatalf("row 0 is not the plan: %v", rs.Rows)
	}
	var text strings.Builder
	for _, r := range rs.Rows {
		text.WriteString(r[0].Text())
		text.WriteString("\n")
	}
	out := text.String()
	if !strings.Contains(out, "CANDIDATE ACCESS PATHS:") {
		t.Fatalf("EXPLAIN lost the candidate section:\n%s", out)
	}
	// Both the winner (marked *) and the rejected full scan appear, each
	// with a cost.
	if !strings.Contains(out, "* DOMAIN INDEX DOCKWIDX") {
		t.Errorf("winner not marked:\n%s", out)
	}
	if !strings.Contains(out, "TABLE ACCESS FULL DOCS") || strings.Count(out, "cost=") < 2 {
		t.Errorf("rejected path missing or uncosted:\n%s", out)
	}
}

func TestExplainAnalyze(t *testing.T) {
	_, s := kwSetup(t)
	rs := mustQuery(t, s, `EXPLAIN ANALYZE SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	if len(rs.Columns) != 1 || rs.Columns[0] != "EXPLAIN ANALYZE" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	var text strings.Builder
	for _, r := range rs.Rows {
		text.WriteString(r[0].Text())
		text.WriteString("\n")
	}
	out := text.String()
	for _, want := range []string{
		"SELECT STATEMENT",
		"DOMAIN INDEX DOCKWIDX",
		"est=",     // estimated rows present on the scan node
		"rows=2",   // actual rows measured
		"batch=",   // chosen Fetch batch size on the scan operator
		"batches=", // non-empty chunks the scan produced
		"CANDIDATE ACCESS PATHS:",
		"rows returned: 2",
		"pager: fetches=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}

	// Errors surface instead of rendering a bogus trace.
	if _, err := s.Query(`EXPLAIN ANALYZE SELECT nope FROM Docs`); err == nil {
		t.Error("EXPLAIN ANALYZE swallowed a planning error")
	}
}

func TestSlowQueryHook(t *testing.T) {
	db, s := kwSetup(t)
	var got []*obs.QueryTrace
	db.SetSlowQueryHook(0, func(tr *obs.QueryTrace) { got = append(got, tr) })

	mustQuery(t, s, `SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1 (callback-session queries must not leak through)", len(got))
	}
	tr := got[0]
	if tr.Rows != 2 || len(tr.Ops) == 0 || len(tr.Candidates) == 0 {
		t.Fatalf("hook trace incomplete: %+v", tr)
	}
	if !strings.Contains(tr.SQL, "HasKw") {
		t.Errorf("trace SQL = %q", tr.SQL)
	}

	m := db.Metrics()
	if m.Engine.SlowQueries != 1 || m.Engine.TracedQueries == 0 {
		t.Errorf("slow/traced counters: %+v", m.Engine)
	}

	// A threshold above the query time keeps the hook silent (but the
	// query still runs traced).
	db.SetSlowQueryHook(time.Hour, func(tr *obs.QueryTrace) { got = append(got, tr) })
	mustQuery(t, s, `SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	if len(got) != 1 {
		t.Fatal("hook fired below threshold")
	}

	// Removing the hook stops tracing.
	db.SetSlowQueryHook(0, nil)
	before := db.Metrics().Engine.TracedQueries
	mustQuery(t, s, `SELECT id FROM Docs`)
	if after := db.Metrics().Engine.TracedQueries; after != before {
		t.Error("query still traced after hook removal")
	}
}

func TestTracedJoinAndAggregate(t *testing.T) {
	// Multi-operator plans (join + aggregate + order) must produce a
	// well-formed operator tree without per-inner-row node explosion.
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE a(id NUMBER, v VARCHAR2)`)
	mustExec(t, s, `CREATE TABLE b(id NUMBER, w VARCHAR2)`)
	for i := int64(1); i <= 20; i++ {
		mustExec(t, s, `INSERT INTO a VALUES (?, 'x')`, types.Int(i))
		mustExec(t, s, `INSERT INTO b VALUES (?, 'y')`, types.Int(i%5))
	}
	rs, tr, err := s.QueryTraced(`SELECT a.v, COUNT(*) FROM a, b WHERE a.id = b.id GROUP BY a.v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if len(tr.Ops) == 0 || len(tr.Ops) > 8 {
		t.Fatalf("operator tree wrong size (%d ops): %+v", len(tr.Ops), tr.Ops)
	}
	var haveJoin, haveAgg bool
	for _, op := range tr.Ops {
		if strings.Contains(op.Desc, "NESTED LOOPS") {
			haveJoin = true
		}
		if strings.Contains(op.Desc, "GROUP BY") {
			haveAgg = true
		}
	}
	if !haveJoin || !haveAgg {
		t.Errorf("join=%v agg=%v in ops %+v", haveJoin, haveAgg, tr.Ops)
	}
}

// BenchmarkDomainQueryUntraced / BenchmarkDomainQueryTraced measure the
// tracing overhead claim: with no trace attached (no EXPLAIN ANALYZE, no
// hook) a query's only observability cost is atomic counter increments,
// which must stay within noise (<2%) of an uninstrumented engine; the
// traced variant pays for candidate recording, per-operator timing and
// the pager snapshot delta. Compare:
//
//	go test -bench 'DomainQuery' -benchtime 2s ./internal/engine
func BenchmarkDomainQueryUntraced(b *testing.B) {
	_, s := kwSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(`SELECT id FROM Docs WHERE HasKw(body, 'unix')`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDomainQueryTraced(b *testing.B) {
	_, s := kwSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.QueryTraced(`SELECT id FROM Docs WHERE HasKw(body, 'unix')`); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUntracedQueryAllocatesNoTrace pins the fast-path property behind
// the <2% overhead claim structurally: without EXPLAIN ANALYZE or a
// hook, no QueryTrace is created and no operator is instrumented.
func TestUntracedQueryAllocatesNoTrace(t *testing.T) {
	db, s := kwSetup(t)
	before := db.Metrics().Engine
	mustQuery(t, s, `SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	after := db.Metrics().Engine
	if after.TracedQueries != before.TracedQueries {
		t.Fatalf("untraced query created a trace: %+v -> %+v", before, after)
	}
	if after.Selects == before.Selects {
		t.Fatal("select counter dead")
	}
}

// TestWALAndAdmissionCountersFileBacked pins the one-mode contract: a
// file database and an in-memory one run the same logged commit path, so
// both report WAL traffic, writer admission and the mutation window.
func TestWALAndAdmissionCountersFileBacked(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"file", Options{Path: t.TempDir() + "/m.db"}},
		{"memory", Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE t(id NUMBER)`)
			mustExec(t, s, `INSERT INTO t VALUES (1)`)
			m := db.Metrics()
			if m.Pager.WALRecords == 0 || m.Pager.WALCommits == 0 || m.Pager.WALBytes == 0 {
				t.Errorf("wal counters dead: %+v", m.Pager)
			}
			if m.Waits.Classes["AdmissionShared"].Count+m.Waits.Classes["AdmissionExclusive"].Count == 0 {
				t.Errorf("writer admissions not counted: %+v", m.Waits.Classes)
			}
			if m.Waits.Classes["MutationWindow"].Count == 0 {
				t.Errorf("mutation-window entries not counted: %+v", m.Waits.Classes)
			}
			if m.Pager.WALSyncs == 0 || m.Pager.WALGroupedCommits == 0 {
				t.Errorf("fsync / grouped-commit counters dead: %+v", m.Pager)
			}
		})
	}
}
