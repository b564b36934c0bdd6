package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/extidx"
	"repro/internal/types"
)

// lockProbe records every cartridge callback the engine makes and, at
// entry to each, whether one of the engine's own short locks is held.
// Cartridge code is user code: it may block, call back into the engine
// or take long, so none of these may be held across it (the mutation
// window and table locks, which callbacks run under by design, are not
// probed). One session and no background checkpointer run, so a lock
// found held is held by the call path itself.
type lockProbe struct {
	db    *DB
	calls map[string]int
	held  []string
}

func (p *lockProbe) enter(cb string) {
	p.calls[cb]++
	for _, l := range []struct {
		name string
		mu   *sync.Mutex
	}{{"walMu", &p.db.walMu}, {"parseMu", &p.db.parseMu}, {"mutStateMu", &p.db.mutStateMu}} {
		if !l.mu.TryLock() {
			p.held = append(p.held, fmt.Sprintf("%s called with %s held", cb, l.name))
			continue
		}
		l.mu.Unlock()
	}
}

// probedMethods is the keyword cartridge with the probe at each entry.
type probedMethods struct {
	m *kwMethods
	p *lockProbe
}

func (w probedMethods) Create(s extidx.Server, info extidx.IndexInfo) error {
	w.p.enter("Create")
	return w.m.Create(s, info)
}

func (w probedMethods) Alter(s extidx.Server, info extidx.IndexInfo, params string) error {
	w.p.enter("Alter")
	return w.m.Alter(s, info, params)
}

func (w probedMethods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	w.p.enter("Truncate")
	return w.m.Truncate(s, info)
}

func (w probedMethods) Drop(s extidx.Server, info extidx.IndexInfo) error {
	w.p.enter("Drop")
	return w.m.Drop(s, info)
}

func (w probedMethods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, v types.Value) error {
	w.p.enter("Insert")
	return w.m.Insert(s, info, rid, v)
}

func (w probedMethods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, v types.Value) error {
	w.p.enter("Delete")
	return w.m.Delete(s, info, rid, v)
}

func (w probedMethods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	w.p.enter("Update")
	return w.m.Update(s, info, rid, oldVal, newVal)
}

func (w probedMethods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	w.p.enter("Start")
	return w.m.Start(s, info, call)
}

func (w probedMethods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	w.p.enter("Fetch")
	return w.m.Fetch(s, st, maxRows)
}

func (w probedMethods) Close(s extidx.Server, st extidx.ScanState) error {
	w.p.enter("Close")
	return w.m.Close(s, st)
}

// probedStats is the keyword cartridge's statistics type with the probe
// at each entry; it also collects (nothing) on ANALYZE.
type probedStats struct {
	st kwStats
	p  *lockProbe
}

func (w probedStats) Selectivity(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (float64, error) {
	w.p.enter("Selectivity")
	return w.st.Selectivity(s, info, call)
}

func (w probedStats) IndexCost(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall, sel float64) (extidx.Cost, error) {
	w.p.enter("IndexCost")
	return w.st.IndexCost(s, info, call, sel)
}

func (w probedStats) Collect(s extidx.Server, info extidx.IndexInfo) error {
	w.p.enter("Collect")
	return nil
}

// TestCallbacksRunWithoutEngineLocks drives every kind of statement that
// crosses the ODCI boundary — index DDL, DML autocommit and inside a
// transaction, domain scans, plans that cost the domain path, ANALYZE —
// through a cartridge whose every callback checks that the WAL, parse
// cache and mutation-window state locks are free.
func TestCallbacksRunWithoutEngineLocks(t *testing.T) {
	db, err := Open(Options{DisableBackgroundCheckpointer: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m := &kwMethods{}
	probe := &lockProbe{db: db, calls: map[string]int{}}
	reg := db.Registry()
	for _, err := range []error{
		reg.RegisterFunction("HasKwFn", hasKwFn),
		reg.RegisterMethods("ProbedKwMethods", probedMethods{m: m, p: probe}),
		reg.RegisterStats("ProbedKwStats", probedStats{st: kwStats{m: m}, p: probe}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE OPERATOR HasKw BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER USING HasKwFn`)
	mustExec(t, s, `CREATE INDEXTYPE KwIndexType FOR HasKw(VARCHAR2, VARCHAR2) USING ProbedKwMethods WITH STATS ProbedKwStats`)
	mustExec(t, s, `CREATE TABLE Docs(id NUMBER, body VARCHAR2)`)
	for i := 0; i < 40; i++ {
		mustExec(t, s, `INSERT INTO Docs VALUES (?, ?)`, types.Int(int64(i)), types.Str(fmt.Sprintf("doc%d common", i)))
	}
	query := `SELECT id FROM Docs WHERE HasKw(body, 'doc7')`
	for _, stmt := range []string{
		`CREATE INDEX DocKw ON Docs(body) INDEXTYPE IS KwIndexType`,
		`ALTER INDEX DocKw PARAMETERS (':probe')`,
		`INSERT INTO Docs VALUES (100, 'doc7 late')`,
		`UPDATE Docs SET body = 'doc7 moved' WHERE id = 8`,
		`DELETE FROM Docs WHERE id = 9`,
		`BEGIN`,
		`INSERT INTO Docs VALUES (101, 'doc7 in txn')`,
		`UPDATE Docs SET body = 'doc7 again' WHERE id = 10`,
		`DELETE FROM Docs WHERE id = 11`,
		`COMMIT`,
		`ANALYZE TABLE Docs`,
	} {
		mustExec(t, s, stmt)
	}
	rs := mustQuery(t, s, query) // planned: the stats methods cost the domain path
	s.SetForcedPath(ForceDomainScan)
	forced := mustQuery(t, s, query)
	s.SetForcedPath(ForceAuto)
	if len(rs.Rows) != 5 || len(forced.Rows) != 5 {
		t.Errorf("%s: %d rows planned, %d forced onto the index; want 5", query, len(rs.Rows), len(forced.Rows))
	}
	mustExec(t, s, `TRUNCATE TABLE Docs`)
	mustExec(t, s, `DROP INDEX DocKw`)

	for _, h := range probe.held {
		t.Error(h)
	}
	var missing []string
	for _, cb := range []string{"Create", "Alter", "Truncate", "Drop", "Insert", "Update", "Delete",
		"Start", "Fetch", "Close", "Selectivity", "IndexCost", "Collect"} {
		if probe.calls[cb] == 0 {
			missing = append(missing, cb)
		}
	}
	if len(missing) > 0 {
		t.Errorf("callbacks never called: %v (calls: %v)", missing, probe.calls)
	}
}
