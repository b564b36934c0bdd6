package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

// Projection parity: SELECT scans decode only the columns the statement
// reads (markReadColumns), and must return exactly what decoding every
// column returns. Generated queries run over a table with NUMBER,
// VARCHAR2, OBJECT, VARRAY and BOOLEAN columns, a B-tree and a domain
// index, and a second table to join, under several forced paths and at
// parallel degree 1 and 2, once with the masks and once with decodeAll.

var projWords = []string{"oracle", "unix", "java", "golf", "chess"}

// wideTables creates and fills Wide (every column kind, NULLs one time
// in ten) and Side (a table to join) on s's database.
func wideTables(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TYPE Pt AS OBJECT (x NUMBER, y NUMBER)`)
	mustExec(t, s, `CREATE TABLE Wide(id NUMBER, k NUMBER, name VARCHAR2, body VARCHAR2, loc Pt, tags VARRAY, flag BOOLEAN, pad VARCHAR2)`)
	mustExec(t, s, `CREATE TABLE Side(sid NUMBER, wid NUMBER, note VARCHAR2)`)
	rng := rand.New(rand.NewSource(28))
	maybe := func(v types.Value) types.Value {
		if rng.Intn(10) == 0 {
			return types.Null()
		}
		return v
	}
	mustExec(t, s, `BEGIN`)
	for i := 0; i < wideRows; i++ {
		body := projWords[rng.Intn(len(projWords))] + " " + projWords[rng.Intn(len(projWords))]
		row := []types.Value{
			types.Int(int64(i)),
			maybe(types.Int(int64(rng.Intn(100)))),
			maybe(types.Str(fmt.Sprintf("n%d", rng.Intn(50)))),
			maybe(types.Str(body)),
			maybe(types.Obj("Pt", types.Int(int64(rng.Intn(9))), types.Int(int64(i)))),
			maybe(types.Arr(types.Str(projWords[i%len(projWords)]), types.Int(int64(i%7)))),
			maybe(types.Bool(rng.Intn(3) == 0)),
			types.Str(strings.Repeat("p", 40)),
		}
		if err := s.InsertRow("Wide", row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		mustExec(t, s, `INSERT INTO Side VALUES (?, ?, ?)`, types.Int(int64(i)),
			maybe(types.Int(int64(rng.Intn(wideRows)))), types.Str(fmt.Sprintf("note%d", i%13)))
	}
	mustExec(t, s, `COMMIT`)
}

// wideRows clears the planner's parallelMinRows floor, so the degree-2
// runs really split the scan.
const wideRows = 800

// projectionFixture is wideTables with a B-tree on Wide.k and a domain
// index on Wide.body.
func projectionFixture(t *testing.T) *Session {
	t.Helper()
	s := setupKwCartridge(t, newDB(t), &kwMethods{failNext: map[string]bool{}})
	wideTables(t, s)
	mustExec(t, s, `CREATE INDEX Wide_k ON Wide(k)`)
	mustExec(t, s, `CREATE INDEX Wide_kw ON Wide(body) INDEXTYPE IS KwIndexType`)
	return s
}

// projectionQuery draws one SELECT. Single-table shapes pick select
// items, WHERE atoms and ORDER BY keys (often a column not selected)
// from pools over every column kind; aggregate and join shapes vary the
// grouping column, the aggregate and the join predicate.
func projectionQuery(rng *rand.Rand) string {
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	items := []string{"id", "k", "name", "body", "loc", "tags", "flag", "k + 1", "name || '!'", "ROWID", "id * 2"}
	atoms := []string{
		"k < 40", "k BETWEEN 20 AND 30", "k = 7", "flag = TRUE", "flag = 1", "name LIKE 'n1%'",
		"HasKw(body, 'golf')", "k IS NULL", "loc IS NOT NULL", "tags IS NULL", "id > 700", "pad IS NULL",
	}
	where := func(max int) string {
		n := rng.Intn(max + 1)
		var conj []string
		for i := 0; i < n; i++ {
			conj = append(conj, pick(atoms))
		}
		if len(conj) == 0 {
			return ""
		}
		return " WHERE " + strings.Join(conj, " AND ")
	}
	switch rng.Intn(6) {
	case 0: // aggregate, maybe grouped
		aggs := []string{"COUNT(*)", "SUM(k)", "MIN(name)", "MAX(id)", "AVG(k)", "COUNT(flag)"}
		sel := pick(aggs)
		if rng.Intn(2) == 0 {
			sel += ", " + pick(aggs)
		}
		if rng.Intn(2) == 0 {
			g := pick([]string{"k", "flag", "name"})
			return "SELECT " + g + ", " + sel + " FROM Wide" + where(1) + " GROUP BY " + g
		}
		return "SELECT " + sel + " FROM Wide" + where(2)
	case 1: // join
		j := pick([]string{"w.id = s.wid", "s.wid = w.k", "w.ROWID = s.sid"})
		sel := pick([]string{"w.name, s.note", "s.note", "w.tags, s.sid", "*", "w.*", "COUNT(*)"})
		q := "SELECT " + sel + " FROM Wide w, Side s WHERE " + j
		if rng.Intn(2) == 0 {
			q += " AND " + pick([]string{"w.k < 50", "s.sid < 100", "HasKw(w.body, 'java')", "w.flag = TRUE"})
		}
		return q
	}
	var sel []string
	if rng.Intn(8) == 0 {
		sel = []string{"*"}
	} else {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			sel = append(sel, pick(items))
		}
	}
	q := "SELECT " + strings.Join(sel, ", ") + " FROM Wide" + where(2)
	if rng.Intn(2) == 0 {
		q += " ORDER BY " + pick([]string{"id", "k", "name", "flag", "k DESC", "id DESC"})
		if rng.Intn(2) == 0 {
			q += ", id" // a total order: a LIMIT cuts the same rows at any degree
			if rng.Intn(2) == 0 {
				q += " LIMIT 25"
			}
		}
	}
	return q
}

// projectionRows runs q and renders its rows, in order when ordered is
// set and as a sorted multiset otherwise.
func projectionRows(t *testing.T, s *Session, q string, ordered bool) []string {
	t.Helper()
	rs, err := s.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = fmt.Sprint(r)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

func TestProjectionParity(t *testing.T) {
	s := projectionFixture(t)
	defer s.SetParallel(1)
	defer s.SetForcedPath(ForceAuto)
	queries := []string{
		// The shapes every run must cover, whatever the generator draws.
		`SELECT COUNT(*) FROM Wide`,
		`SELECT name FROM Wide WHERE k < 30 ORDER BY pad, id`,
		`SELECT id FROM Wide ORDER BY k, id`,
		`SELECT id, body FROM Wide WHERE HasKw(body, 'chess')`,
		`SELECT id, KwScore(1) FROM Wide WHERE HasKw(body, 'oracle', 1)`,
		`SELECT loc, tags FROM Wide WHERE id < 50`,
		`SELECT flag, COUNT(*) FROM Wide GROUP BY flag HAVING MAX(k) > 50`,
		`SELECT w.loc, s.note FROM Side s, Wide w WHERE s.wid = w.id AND s.sid < 40`,
		`SELECT k AS kk, id FROM Wide WHERE k < 10 ORDER BY kk, id`,
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 30; i++ {
		queries = append(queries, projectionQuery(rng))
	}
	paths := []string{ForceAuto, ForceFullScan, ForceIndexScan, ForceDomainScan}
	for _, q := range queries {
		for _, path := range paths {
			if strings.Contains(q, "KwScore") && path == ForceFullScan {
				// A full scan evaluates the operator functionally, which
				// produces no ancillary value: Score there returns
				// whatever the session last stored, a known gap.
				continue
			}
			for _, degree := range []int{1, 2} {
				s.SetForcedPath(path)
				s.SetParallel(degree)
				// A serial plan orders ties the same way on every run,
				// so its ORDER BY output must match row for row.
				ordered := degree == 1 && strings.Contains(q, "ORDER BY")
				s.decodeAll = true
				want := projectionRows(t, s, q, ordered)
				s.decodeAll = false
				got := projectionRows(t, s, q, ordered)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s (path %q, degree %d): masked scan returned\n%v\nfull decode returned\n%v", q, path, degree, got, want)
				}
			}
		}
	}
}

// TestMarkReadColumns pins the masks the planner hands the scans.
func TestMarkReadColumns(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TYPE Pt AS OBJECT (x NUMBER, y NUMBER)`)
	mustExec(t, s, `CREATE TABLE Wide(id NUMBER, k NUMBER, name VARCHAR2, body VARCHAR2, loc Pt, tags VARRAY, flag BOOLEAN, pad VARCHAR2)`)
	mustExec(t, s, `CREATE TABLE Side(sid NUMBER, wid NUMBER, note VARCHAR2)`)
	// Wide: id k name body loc tags flag pad; Side: sid wid note.
	cases := []struct {
		q    string
		want []string // one mask per FROM entry; "" is nil (every column)
	}{
		{`SELECT COUNT(*) FROM Wide`, []string{"--------"}},
		{`SELECT k, COUNT(*) FROM Wide WHERE flag = TRUE GROUP BY k HAVING MAX(id) > 3`, []string{"xx----x-"}},
		{`SELECT name FROM Wide ORDER BY loc`, []string{"--x-x---"}},
		{`SELECT k AS kk FROM Wide ORDER BY kk`, []string{"-x------"}},
		{`SELECT k FROM Wide ORDER BY nosuch`, []string{""}},
		{`SELECT ROWID FROM Wide WHERE HasKw(body, 'x')`, []string{"---x----"}},
		{`SELECT * FROM Wide`, []string{""}},
		{`SELECT id, k, name, body, loc, tags, flag, pad FROM Wide`, []string{""}},
		{`SELECT w.name, s.note FROM Wide w, Side s WHERE w.id = s.wid`, []string{"x-x-----", "-xx"}},
		{`SELECT s.* FROM Wide w, Side s WHERE w.id = s.wid`, []string{"x-------", ""}},
		{`SELECT note, tags FROM Wide w, Side s`, []string{"-----x--", "--x"}},
	}
	for _, tc := range cases {
		st, err := sql.Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sql.Select)
		var tbs []*tableBinding
		for _, ref := range sel.From {
			tb, err := s.bindTable(ref)
			if err != nil {
				t.Fatal(err)
			}
			tbs = append(tbs, tb)
		}
		s.markReadColumns(tbs, sel)
		for i, tb := range tbs {
			got := ""
			for _, read := range tb.cols {
				got += map[bool]string{true: "x", false: "-"}[read]
			}
			if got != tc.want[i] {
				t.Errorf("%s: %s reads %q, want %q", tc.q, tb.alias, got, tc.want[i])
			}
		}
	}
}

// TestMaskedScanSkipsStrings: a full-scan aggregate over rows whose
// strings, objects and arrays it does not read allocates a small
// multiple of its row count at most, counting the exchange's own
// overhead at degree 2, where decoding them all costs about nine per
// row: the mask reaches the scan, in serial and parallel plans.
func TestMaskedScanSkipsStrings(t *testing.T) {
	s := newDB(t).NewSession()
	wideTables(t, s)
	defer s.SetParallel(1)
	for _, degree := range []int{1, 2} {
		s.SetParallel(degree)
		allocs := testing.AllocsPerRun(3, func() {
			mustQuery(t, s, `SELECT COUNT(*), SUM(k) FROM Wide WHERE id >= 0`)
		})
		t.Logf("degree %d: %.0f allocations", degree, allocs)
		if allocs > 2*wideRows {
			t.Errorf("degree %d: a %d-row aggregate allocates %.0f per query, want at most two per row", degree, wideRows, allocs)
		}
	}
}

// TestBooleanProbeParity: a BOOLEAN column compared with a NUMBER
// (flag = 1, as operator predicates are written) finds the TRUE rows on
// every path: the B-tree, hash and bitmap probes must not miss them
// where the full scan's coercing comparison finds them, and a NUMBER
// column compared with TRUE likewise. An index join on a BOOLEAN key
// against NUMBER outer values matches as the filter would.
func TestBooleanProbeParity(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE B(id NUMBER, bt BOOLEAN, bh BOOLEAN, bm BOOLEAN, n NUMBER)`)
	mustExec(t, s, `BEGIN`)
	for i := 0; i < 2000; i++ {
		b := types.Bool(i%100 == 0)
		if i%7 == 3 {
			b = types.Null()
		}
		mustExec(t, s, `INSERT INTO B VALUES (?, ?, ?, ?, ?)`, types.Int(int64(i)), b, b, b, types.Int(int64(i%100)))
	}
	mustExec(t, s, `COMMIT`)
	mustExec(t, s, `CREATE INDEX B_bt ON B(bt)`)
	mustExec(t, s, `CREATE HASH INDEX B_bh ON B(bh)`)
	mustExec(t, s, `CREATE BITMAP INDEX B_bm ON B(bm)`)
	mustExec(t, s, `CREATE INDEX B_n ON B(n)`)
	mustExec(t, s, `CREATE TABLE J(v NUMBER)`)
	for _, v := range []int{0, 1, 2} {
		mustExec(t, s, `INSERT INTO J VALUES (?)`, types.Int(int64(v)))
	}
	defer s.SetForcedPath(ForceAuto)
	var preds []string
	for _, col := range []string{"bt", "bh", "bm"} {
		preds = append(preds, col+" = 1", col+" = 0", "1 = "+col, col+" = 2", col+" = TRUE", col+" = ?",
			col+" >= 1", col+" < 1", col+" BETWEEN 0 AND 1")
	}
	preds = append(preds, "n = TRUE", "n = FALSE", "n <= TRUE")
	for _, p := range preds {
		q := `SELECT id FROM B WHERE ` + p
		s.SetForcedPath(ForceFullScan)
		want := sortedRows(mustQuery(t, s, q, types.Int(1)))
		if strings.HasSuffix(p, "= 1") && len(want) != 17 {
			t.Fatalf("%s: full scan finds %d rows, want the 17 TRUE ones", p, len(want))
		}
		for _, path := range []string{ForceIndexScan, ForceAuto} {
			s.SetForcedPath(path)
			if got := sortedRows(mustQuery(t, s, q, types.Int(1))); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s (path %q): %d rows, full scan %d", q, path, len(got), len(want))
			}
		}
	}
	for _, col := range []string{"bt", "bh"} {
		q := `SELECT J.v, B.id FROM J, B WHERE B.` + col + ` = J.v`
		s.SetForcedPath(ForceAuto)
		plan := flattenPlan(mustQuery(t, s, `EXPLAIN `+q))
		if !strings.Contains(plan, "NESTED LOOPS (INDEX") {
			t.Fatalf("%s: want an index join, plan:\n%s", q, plan)
		}
		got := mustQuery(t, s, q)
		s.SetForcedPath(ForceFullScan)
		// Wrapped, the comparison is no join key: a filter over the
		// nested loop evaluates it.
		want := mustQuery(t, s, `SELECT J.v, B.id FROM J, B WHERE (B.`+col+` = J.v) = TRUE`)
		if a, b := sortedRows(got), sortedRows(want); fmt.Sprint(a) != fmt.Sprint(b) || len(a) != 17+(2000-17-286) {
			t.Errorf("%s: index join %d rows, filtered join %d", q, len(a), len(b))
		}
	}
}
