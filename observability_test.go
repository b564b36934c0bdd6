package extdb_test

import (
	"fmt"
	"strings"
	"testing"

	extdb "repro"
)

// TestTextEstimatedVsActualSkew drives the text cartridge into a stale
// estimate: ODCIStatsSelectivity caches per-token document frequencies,
// so bulk-loading matching documents after the cache warms leaves the
// optimizer estimating from the old corpus. EXPLAIN ANALYZE must show
// the small estimate next to the large actual row count — the
// estimated-vs-actual feedback loop the observability layer exists for.
func TestTextEstimatedVsActualSkew(t *testing.T) {
	db, err := extdb.Open(extdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	if err := extdb.InstallTextCartridge(db, s); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TABLE corpus(id NUMBER, body VARCHAR2)`)
	for i := 0; i < 3; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO corpus VALUES (%d, 'needle document %d')`, i, i))
	}
	// Enough filler that a full scan costs many pages, so the selective
	// domain path wins on cost.
	for i := 100; i < 1300; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO corpus VALUES (%d, 'ordinary filler text %d')`, i, i))
	}
	mustExec(t, s, `CREATE INDEX corpus_t ON corpus(body) INDEXTYPE IS TextIndexType`)

	// Warm the df cache: the optimizer now believes 'needle' matches 3
	// documents.
	mustQuery(t, s, `SELECT COUNT(*) FROM corpus WHERE Contains(body, 'needle')`)

	// Skew the data under the cached estimate.
	for i := 1000; i < 1200; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO corpus VALUES (%d, 'needle late arrival %d')`, i, i))
	}

	rs, tr, err := s.QueryTraced(`SELECT id FROM corpus WHERE Contains(body, 'needle')`)
	if err != nil {
		t.Fatal(err)
	}
	actual := int64(len(rs.Rows))
	if actual != 203 {
		t.Fatalf("actual rows = %d, want 203", actual)
	}

	c, ok := tr.ChosenCandidate()
	if !ok || c.Kind != "DOMAIN" {
		t.Fatalf("chosen candidate = %+v (ok=%v), want DOMAIN", c, ok)
	}
	if c.Selectivity <= 0 {
		t.Fatalf("domain candidate lost its ODCIStatsSelectivity value: %+v", c)
	}
	// Estimated rows come from the stale df: ~3 against 203 actual.
	if c.EstRows <= 0 || c.EstRows > float64(actual)/10 {
		t.Errorf("estimate not skewed: est=%.1f actual=%d", c.EstRows, actual)
	}
	scan := tr.Ops[0]
	if !strings.Contains(scan.Desc, "DOMAIN INDEX") {
		t.Fatalf("bottom operator is %q, want the domain scan", scan.Desc)
	}
	if scan.Rows != actual {
		t.Errorf("scan actual rows = %d, want %d", scan.Rows, actual)
	}
	if scan.EstRows != c.EstRows {
		t.Errorf("scan estimate %.1f != candidate estimate %.1f", scan.EstRows, c.EstRows)
	}

	// The same skew is visible through SQL.
	out := explainAnalyze(t, s, `EXPLAIN ANALYZE SELECT id FROM corpus WHERE Contains(body, 'needle')`)
	for _, want := range []string{"DOMAIN INDEX", "est=", "rows=203", "CANDIDATE ACCESS PATHS:", "sel="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

// TestSpatialEstimatedVsActualSkew clusters every geometry inside a tiny
// window. The spatial cartridge estimates selectivity from query-area
// fraction of the domain (area-uniformity assumption), so a small window
// over the cluster estimates almost nothing yet matches everything.
func TestSpatialEstimatedVsActualSkew(t *testing.T) {
	db, err := extdb.Open(extdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	if err := extdb.InstallSpatialCartridge(db, s); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `CREATE TABLE sites(gid NUMBER, geometry SDO_GEOMETRY)`)
	// 150 points clustered in [0,32)², far below the 1024² domain.
	for i := 0; i < 150; i++ {
		x := float64(i%12) * 2.5
		y := float64(i/12) * 2.5
		if _, err := s.Exec(`INSERT INTO sites VALUES (?, ?)`,
			extdb.Int(int64(i)), extdb.SpatialPoint(x, y).ToValue()); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, `CREATE INDEX sites_s ON sites(geometry) INDEXTYPE IS SpatialIndexType`)

	win := extdb.SpatialRect(0, 0, 32, 32).ToValue()
	rs, tr, err := s.QueryTraced(
		`SELECT gid FROM sites WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT')`, win)
	if err != nil {
		t.Fatal(err)
	}
	actual := int64(len(rs.Rows))
	if actual != 150 {
		t.Fatalf("actual rows = %d, want 150", actual)
	}

	c, ok := tr.ChosenCandidate()
	if !ok || c.Kind != "DOMAIN" {
		t.Fatalf("chosen candidate = %+v (ok=%v), want DOMAIN", c, ok)
	}
	// Area-based selectivity: 32²/1024² ≈ 0.001 → estimate well under one
	// row, against 150 actual.
	if c.Selectivity <= 0 || c.Selectivity > 0.01 {
		t.Errorf("area selectivity = %v, want ~0.001", c.Selectivity)
	}
	if c.EstRows > float64(actual)/10 {
		t.Errorf("estimate not skewed: est=%.1f actual=%d", c.EstRows, actual)
	}
	scan := tr.Ops[0]
	if !strings.Contains(scan.Desc, "DOMAIN INDEX") || scan.Rows != actual {
		t.Errorf("domain scan node = %+v", scan)
	}

	out := explainAnalyze(t, s,
		`EXPLAIN ANALYZE SELECT gid FROM sites WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT')`, win)
	for _, want := range []string{"DOMAIN INDEX", "est=", "rows=150", "sel="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsThroughPublicAPI exercises DB.Metrics and the slow-query
// hook from outside the engine package.
func TestMetricsThroughPublicAPI(t *testing.T) {
	db, err := extdb.Open(extdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	if err := extdb.InstallTextCartridge(db, s); err != nil {
		t.Fatal(err)
	}
	var slow []*extdb.QueryTrace
	db.SetSlowQueryHook(0, func(tr *extdb.QueryTrace) { slow = append(slow, tr) })

	mustExec(t, s, `CREATE TABLE memos(body VARCHAR2)`)
	mustExec(t, s, `INSERT INTO memos VALUES ('observability memo')`)
	// Filler rows make the selective domain scan beat the full scan.
	for i := 0; i < 600; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO memos VALUES ('filler row %d')`, i))
	}
	mustExec(t, s, `CREATE INDEX memos_t ON memos(body) INDEXTYPE IS TextIndexType`)
	mustQuery(t, s, `SELECT COUNT(*) FROM memos WHERE Contains(body, 'memo')`)

	m := db.Metrics()
	if m.ODCI.Callbacks["ODCIIndexFetch"].Calls == 0 || m.Planner.Plans == 0 || m.Txn.Commits == 0 {
		t.Errorf("metrics incomplete: %+v", m)
	}
	if len(m.PagerShards) == 0 {
		t.Error("Metrics.PagerShards empty (per-shard pager counters disconnected)")
	}
	if len(slow) == 0 {
		t.Fatal("slow-query hook never fired at threshold 0")
	}
	if !strings.Contains(m.String(), "odci callbacks:") {
		t.Errorf("Metrics.String():\n%s", m.String())
	}
}

func mustExec(t *testing.T, s *extdb.Session, stmt string, params ...extdb.Value) {
	t.Helper()
	if _, err := s.Exec(stmt, params...); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}

func mustQuery(t *testing.T, s *extdb.Session, stmt string, params ...extdb.Value) *extdb.ResultSet {
	t.Helper()
	rs, err := s.Query(stmt, params...)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return rs
}

func explainAnalyze(t *testing.T, s *extdb.Session, stmt string, params ...extdb.Value) string {
	t.Helper()
	rs, err := s.Query(stmt, params...)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	var b strings.Builder
	for _, r := range rs.Rows {
		b.WriteString(r[0].Text())
		b.WriteString("\n")
	}
	return b.String()
}
