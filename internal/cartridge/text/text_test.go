package text

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/wordgen"
)

func TestParseParams(t *testing.T) {
	p, err := ParseParams(`:Language English :Ignore the a an`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Language != "english" || !p.StopWords["the"] || !p.StopWords["an"] || p.LazyScan || p.UseHandle {
		t.Errorf("params = %+v", p)
	}
	p, err = ParseParams(`:Scan lazy :Memory handle`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.LazyScan || !p.UseHandle {
		t.Errorf("params = %+v", p)
	}
	if _, err := ParseParams(`:Bogus x`); err == nil {
		t.Error("bad directive accepted")
	}
	if _, err := ParseParams(`loose words`); err == nil {
		t.Error("non-directive text accepted")
	}
	if _, err := ParseParams(``); err != nil {
		t.Error("empty params rejected")
	}
}

func TestTokenizer(t *testing.T) {
	tz := NewTokenizer(Params{Language: "english", StopWords: map[string]bool{"the": true}})
	tf := tz.TokenFreqs("The cats, the DOGS; running quickly! databases")
	for _, want := range []string{"cat", "dog", "runn", "quickly", "database"} {
		if tf[want] == 0 {
			t.Errorf("missing token %q in %v", want, tf)
		}
	}
	if tf["the"] != 0 {
		t.Error("stop word indexed")
	}
	if tz.Normalize("The") != "" {
		t.Error("stop word not dropped by Normalize")
	}
	// Non-English language: no stemming.
	tz2 := NewTokenizer(Params{Language: "german", StopWords: map[string]bool{}})
	if tz2.Normalize("cats") != "cats" {
		t.Error("german tokenizer stemmed")
	}
}

func TestQueryParserAndEval(t *testing.T) {
	tz := NewTokenizer(Params{Language: "english", StopWords: map[string]bool{}})
	doc := tz.TokenFreqs("oracle unix database oracle")
	cases := []struct {
		q    string
		want bool
	}{
		{"oracle", true},
		{"Oracle AND UNIX", true},
		{"oracle AND cobol", false},
		{"oracle OR cobol", true},
		{"cobol OR fortran", false},
		{"oracle AND NOT cobol", true},
		{"oracle AND NOT unix", false},
		{"(oracle OR cobol) AND unix", true},
		{"oracle unix", true}, // juxtaposition = AND
	}
	for _, c := range cases {
		n, err := ParseQuery(c.q, tz)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", c.q, err)
		}
		got, _ := EvalDoc(n, doc)
		if got != c.want {
			t.Errorf("EvalDoc(%q) = %v, want %v", c.q, got, c.want)
		}
	}
	// Score accumulates term frequencies.
	n, _ := ParseQuery("oracle AND unix", tz)
	_, score := EvalDoc(n, doc)
	if score != 3 { // oracle ×2 + unix ×1
		t.Errorf("score = %v", score)
	}
	for _, bad := range []string{"", "(oracle", "oracle)", "AND"} {
		if _, err := ParseQuery(bad, tz); err == nil {
			t.Errorf("ParseQuery(%q) succeeded", bad)
		}
	}
}

func newTextDB(t testing.TB, params string) (*engine.DB, *engine.Session) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := Register(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if err := Setup(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE TABLE Employees(name VARCHAR2, id NUMBER, resume VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	docs := []struct {
		name, resume string
	}{
		{"alice", "Oracle and UNIX expert with database experience"},
		{"bob", "UNIX kernel developer"},
		{"carol", "Oracle DBA and COBOL maintainer"},
		{"dave", "Java programmer"},
		{"erin", "oracle oracle oracle enthusiast"},
	}
	for i, d := range docs {
		if _, err := s.Exec(`INSERT INTO Employees VALUES (?, ?, ?)`,
			types.Str(d.name), types.Int(int64(i+1)), types.Str(d.resume)); err != nil {
			t.Fatal(err)
		}
	}
	ddl := `CREATE INDEX ResumeTextIndex ON Employees(resume) INDEXTYPE IS TextIndexType`
	if params != "" {
		ddl += fmt.Sprintf(" PARAMETERS ('%s')", params)
	}
	if _, err := s.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	return db, s
}

func names(rs *engine.ResultSet) []string {
	var out []string
	for _, r := range rs.Rows {
		out = append(out, r[0].Text())
	}
	return out
}

func TestContainsEndToEnd(t *testing.T) {
	_, s := newTextDB(t, "")
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)

	rs, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'Oracle AND UNIX') ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(rs); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("AND query = %v", got)
	}
	rs, _ = s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'oracle OR java') ORDER BY name`)
	if got := names(rs); strings.Join(got, ",") != "alice,carol,dave,erin" {
		t.Fatalf("OR query = %v", got)
	}
	rs, _ = s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'oracle AND NOT cobol') ORDER BY name`)
	if got := names(rs); strings.Join(got, ",") != "alice,erin" {
		t.Fatalf("NOT query = %v", got)
	}

	// Agreement with the functional path for several queries.
	for _, q := range []string{"unix", "oracle AND unix", "database OR kernel", "oracle AND NOT cobol"} {
		s.SetForcedPath(engine.ForceDomainScan)
		idx, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, ?) ORDER BY name`, types.Str(q))
		if err != nil {
			t.Fatal(err)
		}
		s.SetForcedPath(engine.ForceFullScan)
		fn, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, ?) ORDER BY name`, types.Str(q))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(names(idx), ",") != strings.Join(names(fn), ",") {
			t.Errorf("query %q: index %v vs functional %v", q, names(idx), names(fn))
		}
	}
}

func TestScoreAncillary(t *testing.T) {
	_, s := newTextDB(t, "")
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	rs, err := s.Query(`SELECT name, Score(1) FROM Employees WHERE Contains(resume, 'oracle', 1) ORDER BY Score(1) DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// erin has tf(oracle)=3, highest score first.
	if rs.Rows[0][0].Text() != "erin" || rs.Rows[0][1].Float() != 3 {
		t.Errorf("top scored = %v", rs.Rows[0])
	}
}

func TestMaintenanceKeepsIndexInSync(t *testing.T) {
	_, s := newTextDB(t, "")
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)

	q := func(kw string) []string {
		rs, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, ?) ORDER BY name`, types.Str(kw))
		if err != nil {
			t.Fatal(err)
		}
		return names(rs)
	}
	if _, err := s.Exec(`INSERT INTO Employees VALUES ('frank', 6, 'fortran and oracle legacy systems')`); err != nil {
		t.Fatal(err)
	}
	if got := q("fortran"); len(got) != 1 || got[0] != "frank" {
		t.Fatalf("after insert: %v", got)
	}
	if _, err := s.Exec(`UPDATE Employees SET resume = 'retired' WHERE name = 'frank'`); err != nil {
		t.Fatal(err)
	}
	if got := q("fortran"); len(got) != 0 {
		t.Fatalf("after update: %v", got)
	}
	if got := q("retired"); len(got) != 1 {
		t.Fatalf("after update (new term): %v", got)
	}
	if _, err := s.Exec(`DELETE FROM Employees WHERE name = 'frank'`); err != nil {
		t.Fatal(err)
	}
	if got := q("retired"); len(got) != 0 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestStopWordsAndAlter(t *testing.T) {
	_, s := newTextDB(t, ":Language English :Ignore the and with")
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)

	// Stop words are not indexed; querying one errors (normalizes away).
	if _, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'the')`); err == nil {
		t.Error("stop-word query succeeded")
	}
	// ALTER INDEX with a new stop list rebuilds: 'cobol' becomes a stop
	// word, so carol no longer matches.
	if _, err := s.Exec(`ALTER INDEX ResumeTextIndex PARAMETERS (':Ignore cobol')`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'cobol')`); err == nil {
		t.Error("query for newly stopped word succeeded")
	}
	// Other terms still indexed after the rebuild.
	rs, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'kernel')`)
	if err != nil || len(rs.Rows) != 1 {
		t.Errorf("kernel after alter = %v, %v", rs, err)
	}
}

func TestLazyAndHandleModes(t *testing.T) {
	for _, params := range []string{":Scan lazy", ":Memory handle", ":Scan lazy :Memory handle"} {
		t.Run(params, func(t *testing.T) {
			db, s := newTextDB(t, params)
			s.SetForcedPath(engine.ForceDomainScan)
			rs, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'unix') ORDER BY name`)
			if err != nil {
				t.Fatal(err)
			}
			if got := names(rs); strings.Join(got, ",") != "alice,bob" {
				t.Fatalf("rows = %v", got)
			}
			if db.Workspace().Live() != 0 {
				t.Error("workspace leak")
			}
		})
	}
}

func TestTwoStepMatchesPipelined(t *testing.T) {
	_, s := newTextDB(t, "")
	two, err := TwoStepQuery(s, "Employees", "resume", "ResumeTextIndex", "oracle", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	rs, err := s.Query(`SELECT * FROM Employees WHERE Contains(resume, 'oracle')`)
	s.SetForcedPath(engine.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != len(rs.Rows) {
		t.Fatalf("two-step %d rows, pipelined %d rows", len(two), len(rs.Rows))
	}
	// The temporary result table must be gone.
	if _, err := s.Query(`SELECT COUNT(*) FROM RESULTS$1`); err == nil {
		t.Error("temp result table leaked")
	}
}

func TestOptimizerUsesTextStats(t *testing.T) {
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Register(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if err := Setup(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE TABLE docs(id NUMBER, body VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	g := wordgen.New(7, 2000)
	for i := 0; i < 800; i++ {
		doc := g.Document(30)
		if i == 17 {
			doc += " needleterm"
		}
		if _, err := s.Exec(`INSERT INTO docs VALUES (?, ?)`, types.Int(int64(i)), types.Str(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec(`CREATE INDEX docidx ON docs(body) INDEXTYPE IS TextIndexType`); err != nil {
		t.Fatal(err)
	}
	// Rare term → the optimizer should pick the domain index on its own.
	ex, err := s.Query(`EXPLAIN PLAN FOR SELECT id FROM docs WHERE Contains(body, 'needleterm')`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Rows[0][0].Text(), "DOMAIN INDEX") {
		t.Errorf("rare-term plan = %v", ex.Rows)
	}
	rs, err := s.Query(`SELECT id FROM docs WHERE Contains(body, 'needleterm')`)
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int64() != 17 {
		t.Errorf("rare-term rows = %v err %v", rs, err)
	}
	// Extremely common term (rank 0) → functional full scan is cheaper.
	common := g.CommonWord(0)
	ex, err = s.Query(`EXPLAIN PLAN FOR SELECT COUNT(*) FROM docs WHERE Contains(body, ?)`, types.Str(common))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Rows[0][0].Text(), "FULL") {
		t.Errorf("common-term plan = %v", ex.Rows)
	}
}

func TestNullColumnValues(t *testing.T) {
	_, s := newTextDB(t, "")
	// NULL resumes are skipped by maintenance and never match.
	if _, err := s.Exec(`INSERT INTO Employees (name, id) VALUES ('ghost', 99)`); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	rs, err := s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'oracle') ORDER BY name`)
	s.SetForcedPath(engine.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Rows {
		if r[0].Text() == "ghost" {
			t.Error("NULL resume matched")
		}
	}
	// Updating from NULL to text indexes the row; back to NULL removes it.
	if _, err := s.Exec(`UPDATE Employees SET resume = 'phantom oracle work' WHERE name = 'ghost'`); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	rs, _ = s.Query(`SELECT name FROM Employees WHERE Contains(resume, 'phantom')`)
	if len(rs.Rows) != 1 {
		t.Errorf("NULL->text update not indexed: %v", rs.Rows)
	}
	s.SetForcedPath(engine.ForceAuto)
}

// TestContainsErrorPaths runs the two query errors ODCIIndexStart
// reports, through SQL on a forced domain scan: a query made only of
// negations, and a Contains predicate not compared to 1.
func TestContainsErrorPaths(t *testing.T) {
	_, s := newTextDB(t, "")
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	for q, want := range map[string]string{
		`SELECT name FROM Employees WHERE Contains(resume, 'NOT cobol')`:  "at least one positive term",
		`SELECT name FROM Employees WHERE Contains(resume, 'oracle') = 0`: "compare the operator to 1",
	} {
		if _, err := s.Query(q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", q, err, want)
		}
	}
}
