package bench

import (
	"fmt"
	"strings"

	"repro/internal/cartridge/text"
	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/wordgen"
)

// textDB builds a Zipfian corpus with a TextIndexType domain index.
func textDB(nDocs, wordsPerDoc, vocab int, params string) (*engine.DB, *engine.Session, *wordgen.Generator) {
	db, s := newDB()
	must(text.Register(db))
	must(text.Setup(s))
	must1(s.Exec(`CREATE TABLE docs(id NUMBER, body VARCHAR2)`))
	g := wordgen.New(1234, vocab)
	for i := 0; i < nDocs; i++ {
		must1(s.Exec(`INSERT INTO docs VALUES (?, ?)`,
			types.Int(int64(i)), types.Str(g.Document(wordsPerDoc))))
	}
	ddl := `CREATE INDEX doc_text ON docs(body) INDEXTYPE IS TextIndexType`
	if params != "" {
		ddl += fmt.Sprintf(" PARAMETERS ('%s')", params)
	}
	must1(s.Exec(ddl))
	return db, s, g
}

// E1IndexVsFunctional measures the domain index scan against the
// functional (full-scan) evaluation of the same Contains predicate across
// keyword selectivities — the framework's basic value proposition
// (Fig. 1 architecture driven end to end).
func E1IndexVsFunctional(cfg Config) Table {
	nDocs := cfg.pick(2500, 20000)
	db, s, _ := textDB(nDocs, 30, 1500, "")
	defer mustClose(db)

	t := Table{
		ID:         "E1",
		Title:      "domain index scan vs functional evaluation across selectivity",
		PaperClaim: "indexed evaluation of user-defined operators behaves like built-in indexes; the optimizer picks by cost (§2.4.2)",
		Headers:    []string{"keyword rank", "matches", "selectivity", "functional", "domain scan", "speedup", "auto plan"},
	}
	for _, rank := range []int{1490, 900, 300, 60, 10, 1, 0} {
		kw := wordgen.Word(rank)
		var n int
		s.SetForcedPath(engine.ForceFullScan)
		fnTime := timed(func() {
			rs := must1(s.Query(`SELECT COUNT(*) FROM docs WHERE Contains(body, ?)`, types.Str(kw)))
			n = int(rs.Rows[0][0].Int64())
		})
		s.SetForcedPath(engine.ForceDomainScan)
		idxTime := timed(func() {
			must1(s.Query(`SELECT COUNT(*) FROM docs WHERE Contains(body, ?)`, types.Str(kw)))
		})
		s.SetForcedPath(engine.ForceAuto)
		ex := must1(s.Query(`EXPLAIN PLAN FOR SELECT COUNT(*) FROM docs WHERE Contains(body, ?)`, types.Str(kw)))
		plan := "DOMAIN"
		if strings.Contains(ex.Rows[0][0].Text(), "FULL") {
			plan = "FULL"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rank), fmt.Sprint(n),
			fmt.Sprintf("%.2f%%", 100*float64(n)/float64(nDocs)),
			ms(fnTime), ms(idxTime), ratio(fnTime, idxTime), plan,
		})
	}
	return t
}

// E2TextPre8iVs8i reproduces §3.2.1: the pre-8i two-step plan (temporary
// result table + rewritten join) against the pipelined domain scan, with
// total time, first-row latency, and logical I/O.
func E2TextPre8iVs8i(cfg Config) Table {
	t := Table{
		ID:         "E2",
		Title:      "text query: pre-8i two-step (temp table + join) vs 8i pipelined domain scan",
		PaperClaim: "up to 10X for search-intensive queries; reduced I/O (no temp table), on-demand first rows, fewer joins (§3.2.1)",
		Headers:    []string{"docs", "query", "matches", "two-step", "pipelined", "speedup", "first row", "2-step I/O", "pipe I/O"},
	}
	for _, nDocs := range []int{cfg.pick(1500, 5000), cfg.pick(4000, 20000), cfg.pick(0, 50000)} {
		if nDocs == 0 {
			continue
		}
		db, s, g := textDB(nDocs, 30, 1500, "")
		// "moderate" and the boolean queries return sizable result sets —
		// the "search-intensive" regime where the temporary result table
		// and the extra join hurt most.
		queries := []struct{ name, query string }{
			{"rare", g.CommonWord(220)},
			{"moderate", g.CommonWord(40)},
			{"broad OR", g.CommonWord(15) + " OR " + g.CommonWord(25)},
			{"mixed AND", g.CommonWord(60) + " AND " + g.CommonWord(5)},
		}
		for _, qc := range queries {
			name, query := qc.name, qc.query
			// Warm both paths once (buffer pool, parse cache, dictionary
			// statistics) so the timed runs compare steady-state behaviour.
			must1(text.TwoStepQuery(s, "docs", "body", "doc_text", query, 0))
			s.SetForcedPath(engine.ForceDomainScan)
			must1(s.Query(`SELECT * FROM docs WHERE Contains(body, ?)`, types.Str(query)))
			s.SetForcedPath(engine.ForceAuto)

			var matches int
			before := db.PagerStats().Fetches
			twoTime := timed(func() {
				rows := must1(text.TwoStepQuery(s, "docs", "body", "doc_text", query, 0))
				matches = len(rows)
			})
			twoIO := db.PagerStats().Fetches - before

			s.SetForcedPath(engine.ForceDomainScan)
			before = db.PagerStats().Fetches
			pipeTime := timed(func() {
				rs := must1(s.Query(`SELECT * FROM docs WHERE Contains(body, ?)`, types.Str(query)))
				if len(rs.Rows) != matches {
					panic(fmt.Sprintf("E2 result mismatch: %d vs %d", len(rs.Rows), matches))
				}
			})
			pipeIO := db.PagerStats().Fetches - before
			firstTime := timed(func() {
				must1(s.Query(`SELECT * FROM docs WHERE Contains(body, ?) LIMIT 1`, types.Str(query)))
			})
			s.SetForcedPath(engine.ForceAuto)

			t.Rows = append(t.Rows, []string{
				fmt.Sprint(nDocs), name, fmt.Sprint(matches),
				ms(twoTime), ms(pipeTime), ratio(twoTime, pipeTime), ms(firstTime),
				fmt.Sprint(twoIO), fmt.Sprint(pipeIO),
			})
		}
		mustClose(db)
	}
	return t
}

// E6OptimizerChoice reproduces §2.4.2: the cost-based choice between the
// domain index, a B-tree on id, and the functional full scan, including
// the paper's Contains(...) AND id = :x example.
func E6OptimizerChoice(cfg Config) Table {
	nDocs := cfg.pick(2500, 15000)
	db, s, g := textDB(nDocs, 30, 1500, "")
	defer mustClose(db)
	must1(s.Exec(`CREATE UNIQUE INDEX doc_id ON docs(id)`))

	t := Table{
		ID:         "E6",
		Title:      "cost-based access path selection with ODCIStats callbacks",
		PaperClaim: "the optimizer estimates both plans and picks the cheaper; with id=100 the B-tree wins and Contains runs functionally (§2.4.2)",
		Headers:    []string{"predicate", "auto plan", "auto", "forced FULL", "forced DOMAIN"},
	}
	rare := g.CommonWord(300)
	common := g.CommonWord(0)
	cases := []struct {
		name, sql string
		params    []types.Value
	}{
		{"Contains(rare)", `SELECT COUNT(*) FROM docs WHERE Contains(body, ?)`, []types.Value{types.Str(rare)}},
		{"Contains(common)", `SELECT COUNT(*) FROM docs WHERE Contains(body, ?)`, []types.Value{types.Str(common)}},
		{"Contains(common) AND id=42", `SELECT COUNT(*) FROM docs WHERE Contains(body, ?) AND id = 42`, []types.Value{types.Str(common)}},
	}
	for _, c := range cases {
		ex := must1(s.Query(`EXPLAIN PLAN FOR `+c.sql, c.params...))
		plan := ex.Rows[0][0].Text()
		switch {
		case strings.Contains(plan, "DOMAIN"):
			plan = "DOMAIN INDEX"
		case strings.Contains(plan, "DOC_ID"):
			plan = "BTREE(id)"
		case strings.Contains(plan, "FULL"):
			plan = "FULL SCAN"
		}
		autoTime := timed(func() { must1(s.Query(c.sql, c.params...)) })
		s.SetForcedPath(engine.ForceFullScan)
		fullTime := timed(func() { must1(s.Query(c.sql, c.params...)) })
		s.SetForcedPath(engine.ForceDomainScan)
		domTime := timed(func() { must1(s.Query(c.sql, c.params...)) })
		s.SetForcedPath(engine.ForceAuto)
		t.Rows = append(t.Rows, []string{c.name, plan, ms(autoTime), ms(fullTime), ms(domTime)})
	}
	return t
}

// E7ScanContext measures the §2.2.3 design axes: precompute-all vs
// incremental (lazy) ODCIIndexStart, and return-state vs return-handle
// context transport.
func E7ScanContext(cfg Config) Table {
	nDocs := cfg.pick(3000, 15000)
	t := Table{
		ID:         "E7",
		Title:      "scan context: precompute vs lazy start; value vs workspace handle",
		PaperClaim: "small state returns by value, large state parks in a workspace handle; precompute-all suits ranking operators (§2.2.3)",
		Headers:    []string{"mode", "full drain", "LIMIT 1"},
	}
	for _, mode := range []string{":Scan precompute :Memory value", ":Scan precompute :Memory handle", ":Scan lazy :Memory value", ":Scan lazy :Memory handle"} {
		db, s, g := textDB(nDocs, 30, 1500, mode)
		kw := g.CommonWord(3) // common keyword: large result set / large state
		s.SetForcedPath(engine.ForceDomainScan)
		drain := timed(func() {
			must1(s.Query(`SELECT id FROM docs WHERE Contains(body, ?)`, types.Str(kw)))
		})
		first := timed(func() {
			must1(s.Query(`SELECT id FROM docs WHERE Contains(body, ?) LIMIT 1`, types.Str(kw)))
		})
		t.Rows = append(t.Rows, []string{mode, ms(drain), ms(first)})
		mustClose(db)
	}
	return t
}

// E8BatchFetch sweeps the ODCIIndexFetch batch size, reproducing the
// §2.5 claim that batch interfaces reduce application/server crossings.
func E8BatchFetch(cfg Config) Table {
	nDocs := cfg.pick(3000, 15000)
	db, s, g := textDB(nDocs, 30, 1500, "")
	defer mustClose(db)
	kw := g.CommonWord(1)
	t := Table{
		ID:         "E8",
		Title:      "ODCIIndexFetch batch size vs interface crossings",
		PaperClaim: "batch interfaces reduce interactions between application and server code (§2.5)",
		Headers:    []string{"batch size", "rows", "Fetch calls", "time"},
	}
	s.SetForcedPath(engine.ForceDomainScan)
	for _, batch := range []int{1, 8, 64, 512} {
		db.DefaultFetchBatch = batch
		before := db.Metrics().ODCI.Callbacks["ODCIIndexFetch"].Calls
		var rows int
		d := timed(func() {
			rs := must1(s.Query(`SELECT id FROM docs WHERE Contains(body, ?)`, types.Str(kw)))
			rows = len(rs.Rows)
		})
		calls := db.Metrics().ODCI.Callbacks["ODCIIndexFetch"].Calls - before
		t.Rows = append(t.Rows, []string{fmt.Sprint(batch), fmt.Sprint(rows), fmt.Sprint(calls), ms(d)})
	}
	return t
}

// E9MaintenanceOverhead measures implicit index maintenance: insert
// throughput with increasing numbers of domain indexes on the table, and
// transactional rollback correctness over the maintained index.
func E9MaintenanceOverhead(cfg Config) Table {
	n := cfg.pick(400, 2000)
	t := Table{
		ID:         "E9",
		Title:      "implicit domain index maintenance cost and transactional rollback",
		PaperClaim: "indexes are maintained implicitly by DML within the same transaction; rollback reverts index data stored in the database (§2.4.1, §2.5)",
		Headers:    []string{"domain indexes on table", "insert rows", "total", "per row"},
	}
	for _, withIdx := range []int{0, 1, 2} {
		db, s := newDB()
		must(text.Register(db))
		must(text.Setup(s))
		must1(s.Exec(`CREATE TABLE docs(id NUMBER, body VARCHAR2, alt VARCHAR2)`))
		if withIdx >= 1 {
			must1(s.Exec(`CREATE INDEX t1 ON docs(body) INDEXTYPE IS TextIndexType`))
		}
		if withIdx >= 2 {
			must1(s.Exec(`CREATE INDEX t2 ON docs(alt) INDEXTYPE IS TextIndexType`))
		}
		g := wordgen.New(5, 800)
		docs := make([]string, n)
		for i := range docs {
			docs[i] = g.Document(20)
		}
		d := timed(func() {
			for i := 0; i < n; i++ {
				must1(s.Exec(`INSERT INTO docs VALUES (?, ?, ?)`,
					types.Int(int64(i)), types.Str(docs[i]), types.Str(docs[(i+1)%n])))
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(withIdx), fmt.Sprint(n), ms(d),
			fmt.Sprintf("%.1fµs", float64(d.Microseconds())/float64(n)),
		})
		mustClose(db)
	}
	return t
}
