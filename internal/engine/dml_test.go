package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/types"
)

// chosenDelta runs fn and returns how many plans of each access-path kind
// the planner recorded while it ran.
func chosenDelta(db *DB, fn func()) map[string]int64 {
	before := db.planner.Snapshot().ChosenByKind
	fn()
	out := map[string]int64{}
	for k, v := range db.planner.Snapshot().ChosenByKind {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// loadKeyed creates T(id, k, pad) with n rows, id = k = 0..n-1, and a
// B-tree on the named column, loading in one transaction of multi-row
// INSERTs.
func loadKeyed(t testing.TB, s *Session, n int, indexed string) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE T(id NUMBER, k NUMBER, pad VARCHAR2)`)
	mustExec(t, s, `BEGIN`)
	for lo := 0; lo < n; lo += 500 {
		var vals []string
		for i := lo; i < lo+500 && i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 'pad-%d')", i, i, i))
		}
		mustExec(t, s, `INSERT INTO T VALUES `+strings.Join(vals, ", "))
	}
	mustExec(t, s, `COMMIT`)
	mustExec(t, s, fmt.Sprintf(`CREATE INDEX T_%s ON T(%s)`, indexed, indexed))
}

// TestDMLTargetsThroughChooser: UPDATE and DELETE record their plan in
// the planner stats like a query, pick the B-tree for a selective key,
// and obey the forced path.
func TestDMLTargetsThroughChooser(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	loadKeyed(t, s, 500, "k")

	got := chosenDelta(db, func() {
		if r := mustExec(t, s, `UPDATE T SET pad = 'x' WHERE k = ?`, types.Int(7)); r.RowsAffected != 1 {
			t.Fatalf("UPDATE affected %d rows, want 1", r.RowsAffected)
		}
		if r := mustExec(t, s, `DELETE FROM T WHERE k = ?`, types.Int(8)); r.RowsAffected != 1 {
			t.Fatalf("DELETE affected %d rows, want 1", r.RowsAffected)
		}
	})
	if got["BTREE"] != 2 || len(got) != 1 {
		t.Fatalf("auto DML plans = %v, want two BTREE", got)
	}

	s.SetForcedPath(ForceFullScan)
	got = chosenDelta(db, func() { mustExec(t, s, `UPDATE T SET pad = 'y' WHERE k = ?`, types.Int(9)) })
	s.SetForcedPath(ForceAuto)
	if got["FULL"] != 1 || len(got) != 1 {
		t.Fatalf("forced-FULL UPDATE plans = %v, want one FULL", got)
	}
	rs := mustQuery(t, s, `SELECT pad FROM T WHERE k = 7 OR k = 9 ORDER BY k`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Text() != "x" || rs.Rows[1][0].Text() != "y" {
		t.Fatalf("updated pads = %v", rs.Rows)
	}
}

// TestDMLHalloweenIndexPath: an UPDATE driven by a B-tree range over the
// column it moves must move each row exactly once — the targets are
// drained before the first write, so rows re-inserted above the range
// are never met again.
func TestDMLHalloweenIndexPath(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	loadKeyed(t, s, 2000, "k")

	var r Result
	got := chosenDelta(db, func() {
		r = mustExec(t, s, `UPDATE T SET k = k + 1000 WHERE k BETWEEN 10 AND 20`)
	})
	if got["BTREE"] != 1 {
		t.Fatalf("range UPDATE plans = %v, want the B-tree", got)
	}
	if r.RowsAffected != 11 {
		t.Fatalf("RowsAffected = %d, want 11", r.RowsAffected)
	}
	rs := mustQuery(t, s, `SELECT id, k FROM T WHERE id BETWEEN 10 AND 20 ORDER BY id`)
	for i, row := range rs.Rows {
		if want := int64(i + 10 + 1000); row[1].Int64() != want {
			t.Fatalf("id %d has k = %d, want %d", row[0].Int64(), row[1].Int64(), want)
		}
	}
	// Through the index too: nothing left in the old range, the eleven
	// moved keys beside the eleven rows that always held 1010..1020, and
	// nothing in 2010..2020, where a row moved twice would land.
	s.SetForcedPath(ForceIndexScan)
	defer s.SetForcedPath(ForceAuto)
	for _, c := range []struct {
		q    string
		want int64
	}{
		{`SELECT COUNT(*) FROM T WHERE k BETWEEN 10 AND 20`, 0},
		{`SELECT COUNT(*) FROM T WHERE k BETWEEN 1010 AND 1020`, 22},
		{`SELECT COUNT(*) FROM T WHERE k BETWEEN 2010 AND 2020`, 0},
	} {
		if n := mustQuery(t, s, c.q).Rows[0][0].Int64(); n != c.want {
			t.Fatalf("%s = %d, want %d", c.q, n, c.want)
		}
	}
}

// TestDMLStaleRowid: a ROWID equality on a deleted row matches nothing,
// for DELETE and UPDATE alike, without error.
func TestDMLStaleRowid(t *testing.T) {
	s := newDB(t).NewSession()
	loadKeyed(t, s, 10, "k")
	rid := mustQuery(t, s, `SELECT ROWID FROM T WHERE k = 3`).Rows[0][0]
	if r := mustExec(t, s, `DELETE FROM T WHERE ROWID = ?`, rid); r.RowsAffected != 1 {
		t.Fatalf("first DELETE by ROWID affected %d rows, want 1", r.RowsAffected)
	}
	if r := mustExec(t, s, `DELETE FROM T WHERE ROWID = ?`, rid); r.RowsAffected != 0 {
		t.Fatalf("DELETE by stale ROWID affected %d rows, want 0", r.RowsAffected)
	}
	if r := mustExec(t, s, `UPDATE T SET pad = 'z' WHERE ROWID = ?`, rid); r.RowsAffected != 0 {
		t.Fatalf("UPDATE by stale ROWID affected %d rows, want 0", r.RowsAffected)
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM T`).Rows[0][0].Int64(); n != 9 {
		t.Fatalf("%d rows left, want 9", n)
	}
}

// TestDMLNullKeys: a comparison with NULL is never true, and the
// indexes hold NULL keys (the B-tree sorts them after every number).
// Under the cost-based choice and forced index paths alike, DML with a
// NULL parameter or an open range over NULL rows affects exactly the
// rows a full scan does, and an index join on a NULL key matches nothing.
func TestDMLNullKeys(t *testing.T) {
	for _, path := range []string{ForceFullScan, ForceAuto, ForceIndexScan} {
		t.Run("path="+path, func(t *testing.T) {
			s := newDB(t).NewSession()
			// id 0..99; k = id, h = id % 7, b = id % 3, except that k, h
			// and b are NULL on the ten multiples of 10.
			mustExec(t, s, `CREATE TABLE T(id NUMBER, k NUMBER, h NUMBER, b NUMBER, pad VARCHAR2)`)
			mustExec(t, s, `BEGIN`)
			for i := 0; i < 100; i++ {
				if i%10 == 0 {
					mustExec(t, s, `INSERT INTO T VALUES (?, NULL, NULL, NULL, 'p')`, types.Int(int64(i)))
					continue
				}
				mustExec(t, s, `INSERT INTO T VALUES (?, ?, ?, ?, 'p')`,
					types.Int(int64(i)), types.Int(int64(i)), types.Int(int64(i%7)), types.Int(int64(i%3)))
			}
			mustExec(t, s, `COMMIT`)
			for _, ddl := range []string{`CREATE INDEX T_ID ON T(id)`, `CREATE INDEX T_K ON T(k)`,
				`CREATE HASH INDEX T_H ON T(h)`, `CREATE BITMAP INDEX T_B ON T(b)`} {
				mustExec(t, s, ddl)
			}
			mustExec(t, s, `CREATE TABLE U(x NUMBER)`)
			mustExec(t, s, `INSERT INTO U VALUES (NULL)`)

			null := types.Null()
			s.SetForcedPath(path)
			for _, c := range []struct {
				q    string
				args []types.Value
				want int64
			}{
				{`DELETE FROM T WHERE id = ?`, []types.Value{null}, 0},
				{`UPDATE T SET pad = 'x' WHERE k = ?`, []types.Value{null}, 0},
				{`UPDATE T SET pad = 'x' WHERE k BETWEEN ? AND ?`, []types.Value{null, types.Int(50)}, 0},
				{`DELETE FROM T WHERE h = ?`, []types.Value{null}, 0},
				{`DELETE FROM T WHERE b = ?`, []types.Value{null}, 0},
				{`DELETE FROM T WHERE ROWID = ?`, []types.Value{null}, 0},
				// k 91..99; k is NULL on id 90.
				{`UPDATE T SET pad = 'gt' WHERE k > ?`, []types.Value{types.Int(89)}, 9},
				{`DELETE FROM T WHERE k >= ?`, []types.Value{types.Int(89)}, 10},
				// k 1..5
				{`DELETE FROM T WHERE k <= ?`, []types.Value{types.Int(5)}, 5},
			} {
				if r := mustExec(t, s, c.q, c.args...); r.RowsAffected != c.want {
					t.Fatalf("%s %v affected %d rows, want %d", c.q, c.args, r.RowsAffected, c.want)
				}
			}
			for _, c := range []struct {
				q    string
				want int64
			}{
				{`SELECT COUNT(*) FROM T`, 85},
				{`SELECT COUNT(*) FROM T WHERE k > 0`, 75},
				{`SELECT COUNT(*) FROM T WHERE k < 1000`, 75},
				{`SELECT COUNT(*) FROM T WHERE pad = 'x'`, 0},
				{`SELECT COUNT(*) FROM U, T WHERE U.x = T.k`, 0},
				{`SELECT COUNT(*) FROM U, T WHERE U.x = T.h`, 0},
			} {
				if n := mustQuery(t, s, c.q).Rows[0][0].Int64(); n != c.want {
					t.Fatalf("%s = %d, want %d", c.q, n, c.want)
				}
			}
			s.SetForcedPath(ForceAuto)
		})
	}
}

// TestDMLIndexPathRollback: UPDATE and DELETE whose targets come from a
// B-tree, a hash, a bitmap and a domain index, rolled back together,
// restore every row and every built-in and domain index entry.
func TestDMLIndexPathRollback(t *testing.T) {
	db := newDB(t)
	s := setupKwCartridge(t, db, &kwMethods{failNext: map[string]bool{}})
	// Every path below is forced, so the filler documents that let the
	// optimizer pick index paths on its own are not needed.
	mustExec(t, s, `DELETE FROM Docs WHERE id > 1001`)
	mustExec(t, s, `CREATE INDEX DocKwIdx ON Docs(body) INDEXTYPE IS KwIndexType`)
	mustExec(t, s, `CREATE INDEX DocsId ON Docs(id)`)
	mustExec(t, s, `CREATE HASH INDEX DocsIdHash ON Docs(id)`)
	mustExec(t, s, `CREATE BITMAP INDEX DocsBodyBm ON Docs(body)`)

	// snapshot renders the table, the domain index's data table, and the
	// answers of probes forced through each index kind.
	snapshot := func() string {
		var b strings.Builder
		dump := func(path, q string, args ...types.Value) {
			s.SetForcedPath(path)
			defer s.SetForcedPath(ForceAuto)
			var lines []string
			for _, r := range mustQuery(t, s, q, args...).Rows {
				lines = append(lines, fmt.Sprint(r))
			}
			sort.Strings(lines)
			fmt.Fprintf(&b, "%s %s %v: %s\n", path, q, args, strings.Join(lines, ";"))
		}
		dump(ForceFullScan, `SELECT ROWID, id, body FROM Docs`)
		dump(ForceFullScan, `SELECT token, rid FROM DR$DOCKWIDX$KW`)
		for _, id := range []int64{1, 2, 3, 4, 5, 1000, 1001, 5003} {
			dump(ForceIndexScan, `SELECT ROWID, body FROM Docs WHERE id = ?`, types.Int(id))
			dump(ForceIndexScan, `SELECT ROWID, body FROM Docs WHERE id BETWEEN ? AND ?`, types.Int(id), types.Int(id))
		}
		for _, body := range []string{"unix kernel hacking", "oracle spatial cartridge", "rewritten"} {
			dump(ForceIndexScan, `SELECT ROWID, id FROM Docs WHERE body = ?`, types.Str(body))
		}
		for _, kw := range []string{"unix", "oracle", "cooking", "rewritten"} {
			dump(ForceDomainScan, `SELECT ROWID, id FROM Docs WHERE HasKw(body, ?)`, types.Str(kw))
		}
		return b.String()
	}
	before := snapshot()

	mustExec(t, s, `BEGIN`)
	plans := chosenDelta(db, func() {
		s.SetForcedPath(ForceIndexScan)
		mustExec(t, s, `UPDATE Docs SET id = id + 5000, body = 'rewritten' WHERE id BETWEEN 2 AND 3`)
		mustExec(t, s, `UPDATE Docs SET body = 'rewritten' WHERE id = 4`)
		mustExec(t, s, `DELETE FROM Docs WHERE body = 'oracle oracle oracle'`)
		s.SetForcedPath(ForceDomainScan)
		mustExec(t, s, `DELETE FROM Docs WHERE HasKw(body, 'unix')`)
		s.SetForcedPath(ForceAuto)
	})
	for _, kind := range []string{"BTREE", "HASH", "BITMAP", "DOMAIN"} {
		if plans[kind] == 0 {
			t.Errorf("no DML plan chose %s: %v", kind, plans)
		}
	}
	if n := mustQuery(t, s, `SELECT COUNT(*) FROM Docs WHERE id < 1000`).Rows[0][0].Int64(); n != 1 {
		t.Fatalf("inside the transaction %d low-id rows remain, want 1", n)
	}
	mustExec(t, s, `ROLLBACK`)

	if after := snapshot(); after != before {
		t.Fatalf("rollback did not restore the table and its indexes:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	for _, ix := range db.cat.TableIndexes("Docs") {
		if ix.Kind == catalog.BTreeIndex {
			if err := ix.BT.Validate(); err != nil {
				t.Fatalf("%s: %v", ix.Name, err)
			}
		}
	}
}

// TestDMLIndexPathFetchBound is the cost guard of index-driven DML: on a
// 20,000-row table with a B-tree on id, one UPDATE and one DELETE by id
// each fetch at most 16 pages. When DML found its targets by
// decoding the whole heap, each statement fetched every heap page:
// 87 fetches for the UPDATE and 93 for the DELETE on this table, where
// the B-tree path takes 5 and 11.
func TestDMLIndexPathFetchBound(t *testing.T) {
	if invariantsEnabled {
		t.Skip("invariants builds validate the whole B-tree after every mutation: the fetch count would measure the validation, and the load is quadratic")
	}
	db := newDB(t)
	s := db.NewSession()
	loadKeyed(t, s, 20000, "id")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fetches := func(q string, arg int64) int64 {
		before := db.PagerStats().Fetches
		if r := mustExec(t, s, q, types.Int(arg)); r.RowsAffected != 1 {
			t.Fatalf("%s affected %d rows, want 1", q, r.RowsAffected)
		}
		return db.PagerStats().Fetches - before
	}
	if n := fetches(`UPDATE T SET pad = 'updated' WHERE id = ?`, 12345); n > 16 {
		t.Errorf("UPDATE by id fetched %d pages, want <= 16", n)
	}
	if n := fetches(`DELETE FROM T WHERE id = ?`, 4321); n > 16 {
		t.Errorf("DELETE by id fetched %d pages, want <= 16", n)
	}
}
