package extidx_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cartridge/text"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/types"
)

// DML plan parity: UPDATE and DELETE find their targets through the same
// access-path chooser as SELECT, so every path it can pick must hit the
// same rows. A generated statement sequence runs in lockstep on an
// oracle database forced to full scans and on twins planning under auto,
// forced index and forced domain choice. The one table carries a B-tree,
// a hash, a bitmap and a text domain index, and its indexed columns hold
// NULLs; statements bind NULL parameters too. Each statement must affect
// the same number of rows everywhere; afterwards the twins' rows, read
// back through every index, and their domain-index answers must equal
// the oracle's full-scan answers, and every B-tree must validate. Three
// BOOLEAN columns, one under each built-in index kind, are compared with
// NUMBER parameters too (b = 1, as operator predicates are written),
// which the full scan's comparison coerces and an index probe must not
// miss.

var parityWords = []string{"oracle", "unix", "java", "golf", "kernel", "chess", "sailing", "cobol"}

const parityCols = `SELECT ROWID, id, k, h, b, body, bt, bh, bm FROM P`

func parityBody(rng *rand.Rand) string {
	n := 1 + rng.Intn(3)
	w := make([]string, n)
	for i := range w {
		w[i] = parityWords[rng.Intn(len(parityWords))]
	}
	return strings.Join(w, " ")
}

// parityNum draws 0..hi-1, or NULL one time in eight.
func parityNum(rng *rand.Rand, hi int) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null()
	}
	return types.Int(int64(rng.Intn(hi)))
}

// parityBool draws a BOOLEAN-column value or a parameter to compare one
// with: TRUE, FALSE, 0, 1, 2, or NULL one time in eight.
func parityBool(rng *rand.Rand) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null()
	}
	return []types.Value{types.Bool(true), types.Bool(false), types.Int(0), types.Int(1), types.Int(2)}[rng.Intn(5)]
}

// parityFlag draws a stored BOOLEAN: TRUE, FALSE, or NULL one time in eight.
func parityFlag(rng *rand.Rand) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null()
	}
	return types.Bool(rng.Intn(2) == 0)
}

// openParity builds one twin: the same seeded rows, then the seven indexes.
func openParity(t *testing.T, seed int64, rows int) *engine.Session {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := db.NewSession()
	if err := installThen(text.Register(db), s, text.Setup); err != nil {
		t.Fatalf("install: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	stmts := []string{`CREATE TABLE P(id NUMBER, k NUMBER, h NUMBER, b NUMBER, body VARCHAR2, bt BOOLEAN, bh BOOLEAN, bm BOOLEAN)`, `BEGIN`}
	for i := 0; i < rows; i++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO P VALUES (%d, %s, %s, %s, '%s', %s, %s, %s)`,
			i, parityNum(rng, 100), parityNum(rng, 20), parityNum(rng, 5), parityBody(rng),
			parityFlag(rng), parityFlag(rng), parityFlag(rng)))
	}
	stmts = append(stmts, `COMMIT`,
		`CREATE INDEX P_K ON P(k)`,
		`CREATE HASH INDEX P_H ON P(h)`,
		`CREATE BITMAP INDEX P_B ON P(b)`,
		`CREATE INDEX P_BT ON P(bt)`,
		`CREATE HASH INDEX P_BH ON P(bh)`,
		`CREATE BITMAP INDEX P_BM ON P(bm)`,
		`CREATE INDEX P_T ON P(body) INDEXTYPE IS TextIndexType PARAMETERS (':Language English :Ignore the a an')`)
	for _, st := range stmts {
		if _, err := s.Exec(st); err != nil {
			t.Fatalf("%s: %v", st, err)
		}
	}
	return s
}

// parityAtom draws one conjunct: a sargable comparison on an indexed
// column (its parameter NULL one time in eight), a ROWID probe (live,
// stale or NULL), or the domain operator.
func parityAtom(rng *rand.Rand, live, dead []types.Value) (string, []types.Value) {
	n := func(hi int) types.Value { return parityNum(rng, hi) }
	switch rng.Intn(11) {
	case 0:
		return `k = ?`, []types.Value{n(100)}
	case 1:
		return `k < ?`, []types.Value{n(100)}
	case 2:
		return `k >= ?`, []types.Value{n(120)}
	case 3:
		lo := rng.Intn(100)
		args := []types.Value{types.Int(int64(lo)), types.Int(int64(lo + rng.Intn(15)))}
		if rng.Intn(8) == 0 {
			args[rng.Intn(2)] = types.Null()
		}
		return `k BETWEEN ? AND ?`, args
	case 4:
		return `h = ?`, []types.Value{n(20)}
	case 5:
		return `b = ?`, []types.Value{n(5)}
	case 6:
		if rng.Intn(8) == 0 {
			return `ROWID = ?`, []types.Value{types.Null()}
		}
		if len(dead) > 0 && (len(live) == 0 || rng.Intn(3) == 0) {
			return `ROWID = ?`, []types.Value{dead[rng.Intn(len(dead))]}
		}
		if len(live) > 0 {
			return `ROWID = ?`, []types.Value{live[rng.Intn(len(live))]}
		}
	case 7:
		return []string{`bt = ?`, `bt >= ?`, `bt < ?`}[rng.Intn(3)], []types.Value{parityBool(rng)}
	case 8:
		return `bh = ?`, []types.Value{parityBool(rng)}
	case 9:
		return `bm = ?`, []types.Value{parityBool(rng)}
	}
	return `Contains(body, ?)`, []types.Value{types.Str(parityWords[rng.Intn(len(parityWords))])}
}

// parityStmt draws one UPDATE or DELETE whose WHERE is one atom or, a
// third of the time, an AND of two or three. UPDATE SET k moves rows along the B-tree it may be
// driven by.
func parityStmt(rng *rand.Rand, live, dead []types.Value) (string, []types.Value) {
	var conj []string
	var args []types.Value
	n := 1
	if rng.Intn(3) == 0 {
		n += 1 + rng.Intn(2)
	}
	for ; n > 0; n-- {
		c, a := parityAtom(rng, live, dead)
		conj = append(conj, c)
		args = append(args, a...)
	}
	where := strings.Join(conj, " AND ")
	switch rng.Intn(7) {
	case 0, 1:
		return `UPDATE P SET k = k + ? WHERE ` + where, append([]types.Value{types.Int(int64(rng.Intn(30) - 10))}, args...)
	case 2:
		return `UPDATE P SET h = ?, b = ? WHERE ` + where,
			append([]types.Value{parityNum(rng, 20), parityNum(rng, 5)}, args...)
	case 5:
		return `UPDATE P SET bt = ?, bh = ?, bm = ? WHERE ` + where,
			append([]types.Value{parityFlag(rng), parityFlag(rng), parityFlag(rng)}, args...)
	case 3, 4:
		return `UPDATE P SET body = ? WHERE ` + where, append([]types.Value{types.Str(parityBody(rng))}, args...)
	}
	return `DELETE FROM P WHERE ` + where, args
}

// parityRows runs q under the forced path and returns its rows as a
// sorted multiset of strings.
func parityRows(t *testing.T, s *engine.Session, path, q string, args ...types.Value) []string {
	t.Helper()
	s.SetForcedPath(path)
	defer s.SetForcedPath(engine.ForceAuto)
	rs, err := s.Query(q, args...)
	if err != nil {
		t.Fatalf("%s (path %q): %v", q, path, err)
	}
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// readBack returns s's rows read through the B-tree (a closed range and
// both open ones), through the hash and through the bitmap (each a union
// of index probes over every non-NULL key), and its answer for every
// keyword through the domain index. index and domain name the paths
// forced for the built-in and the domain probes; the oracle answers the
// same probes by full scan.
func readBack(t *testing.T, s *engine.Session, index, domain string) map[string][]string {
	t.Helper()
	out := map[string][]string{
		"btree":              parityRows(t, s, index, parityCols+` WHERE k BETWEEN -100000 AND 100000`),
		"btree >":            parityRows(t, s, index, parityCols+` WHERE k > -100000`),
		"btree <":            parityRows(t, s, index, parityCols+` WHERE k < 100000`),
		"btree = NULL":       parityRows(t, s, index, parityCols+` WHERE k = ?`, types.Null()),
		"btree BETWEEN NULL": parityRows(t, s, index, parityCols+` WHERE k BETWEEN ? AND 100000`, types.Null()),
		"hash NULL":          parityRows(t, s, index, parityCols+` WHERE h = ?`, types.Null()),
		"bitmap NULL":        parityRows(t, s, index, parityCols+` WHERE b = ?`, types.Null()),
	}
	for h := 0; h < 20; h++ {
		out["hash"] = append(out["hash"], parityRows(t, s, index, parityCols+` WHERE h = ?`, types.Int(int64(h)))...)
	}
	for b := 0; b < 5; b++ {
		out["bitmap"] = append(out["bitmap"], parityRows(t, s, index, parityCols+` WHERE b = ?`, types.Int(int64(b)))...)
	}
	for _, col := range []string{"bt", "bh", "bm"} {
		for _, v := range []types.Value{types.Int(1), types.Int(0), types.Int(2), types.Bool(true), types.Bool(false), types.Null()} {
			via := fmt.Sprintf("%s = %s", col, v)
			out[via] = parityRows(t, s, index, parityCols+` WHERE `+col+` = ?`, v)
		}
	}
	out["bt >= 1"] = parityRows(t, s, index, parityCols+` WHERE bt >= 1`)
	out["bt < TRUE"] = parityRows(t, s, index, parityCols+` WHERE bt < TRUE`)
	sort.Strings(out["hash"])
	sort.Strings(out["bitmap"])
	for _, w := range parityWords {
		out["domain "+w] = parityRows(t, s, domain, `SELECT ROWID, id FROM P WHERE Contains(body, ?)`, types.Str(w))
	}
	return out
}

func TestDMLPlanParity(t *testing.T) {
	const seed, rows, steps = 26, 300, 150
	subjects := []string{engine.ForceAuto, engine.ForceIndexScan, engine.ForceDomainScan}
	oracle := openParity(t, seed, rows)
	twins := make([]*engine.Session, len(subjects))
	for i := range twins {
		twins[i] = openParity(t, seed, rows)
	}

	rng := rand.New(rand.NewSource(seed))
	var dead []types.Value
	for step := 0; step < steps; step++ {
		live := parityRowids(t, oracle)
		q, args := parityStmt(rng, live, dead)
		oracle.SetForcedPath(engine.ForceFullScan)
		want, err := oracle.Exec(q, args...)
		oracle.SetForcedPath(engine.ForceAuto)
		if err != nil {
			t.Fatalf("step %d oracle %s %v: %v", step, q, args, err)
		}
		for i, s := range twins {
			s.SetForcedPath(subjects[i])
			got, err := s.Exec(q, args...)
			s.SetForcedPath(engine.ForceAuto)
			if err != nil {
				t.Fatalf("step %d path %q %s %v: %v", step, subjects[i], q, args, err)
			}
			if got.RowsAffected != want.RowsAffected {
				t.Fatalf("step %d path %q %s %v: %d rows affected, oracle %d",
					step, subjects[i], q, args, got.RowsAffected, want.RowsAffected)
			}
		}
		if strings.HasPrefix(q, "DELETE") && want.RowsAffected > 0 {
			remaining := map[int64]bool{}
			for _, rid := range parityRowids(t, oracle) {
				remaining[rid.Int64()] = true
			}
			for _, rid := range live {
				if !remaining[rid.Int64()] {
					dead = append(dead, rid)
				}
			}
		}
	}

	all := parityRows(t, oracle, engine.ForceFullScan, parityCols)
	if len(all) == 0 {
		t.Fatal("the statement sequence emptied the table; the read-back would compare nothing")
	}
	if nulls := parityRows(t, oracle, engine.ForceFullScan, parityCols+` WHERE k IS NULL OR h IS NULL OR b IS NULL`); len(nulls) == 0 {
		t.Fatal("no row is left with a NULL key; the read-back would not meet the index's NULL entries")
	}
	oracleBack := readBack(t, oracle, engine.ForceFullScan, engine.ForceFullScan)
	for i, s := range twins {
		if got := parityRows(t, s, engine.ForceFullScan, parityCols); fmt.Sprint(got) != fmt.Sprint(all) {
			t.Fatalf("path %q: final rows differ from the oracle\n got %v\nwant %v", subjects[i], got, all)
		}
		for via, got := range readBack(t, s, engine.ForceIndexScan, engine.ForceDomainScan) {
			if want := oracleBack[via]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("path %q: rows read through %s differ from the oracle\n got %v\nwant %v", subjects[i], via, got, want)
			}
		}
		cat := s.DB().Catalog()
		for _, tbl := range cat.Tables() {
			for _, ix := range cat.TableIndexes(tbl.Name) {
				if ix.Kind != catalog.BTreeIndex {
					continue
				}
				if err := ix.BT.Validate(); err != nil {
					t.Errorf("path %q: B-tree %s: %v", subjects[i], ix.Name, err)
				}
			}
		}
	}
}

// parityRowids lists the live ROWIDs of P.
func parityRowids(t *testing.T, s *engine.Session) []types.Value {
	t.Helper()
	rs, err := s.Query(`SELECT ROWID FROM P`)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]types.Value, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = r[0]
	}
	return out
}
