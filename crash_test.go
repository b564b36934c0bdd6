package extdb_test

// Crash-recovery matrix: a scripted workload drives DML with implicit
// domain-index maintenance across two cartridges (text and colls, both
// storing index data inside the database), a fault-injecting backend and
// WAL sink simulate power loss at every fault-eligible operation, and
// after each simulated crash the database is reopened on the durable
// media and checked against a Go-side model:
//
//   - every statement whose commit was acknowledged is present,
//   - every statement that returned an error is absent,
//   - domain-index scans agree with full-table scans (heap/index
//     agreement), and for colls with a naive membership oracle too.
//
// All test names carry the Crash prefix so `go test -run Crash` selects
// exactly this harness.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	extdb "repro"
	"repro/internal/cartridge/colls"
	"repro/internal/cartridge/text"
	"repro/internal/storage"
	"repro/internal/storage/fault"
)

// ---------------------------------------------------------------------------
// Workload model

type crashDoc struct {
	ID   int64
	Body string
}

type crashBag struct {
	Name string
	Tags []string
}

// crashModel is the oracle: the state the durable database must show
// after recovery, given the set of acknowledged statements.
type crashModel struct {
	textSetup  bool
	collsSetup bool
	docsTable  bool
	docsIndex  bool
	bagsTable  bool
	bagsIndex  bool
	docs       map[int64]string
	bags       map[string][]string
}

func newCrashModel() *crashModel {
	return &crashModel{docs: map[int64]string{}, bags: map[string][]string{}}
}

type crashStep struct {
	name  string
	run   func(db *extdb.DB, s *extdb.Session) error
	apply func(m *crashModel)
}

func execStep(name, stmt string, apply func(m *crashModel)) crashStep {
	return crashStep{
		name: name,
		run: func(_ *extdb.DB, s *extdb.Session) error {
			_, err := s.Exec(stmt)
			return err
		},
		apply: apply,
	}
}

func insertDocStep(id int64, body string) crashStep {
	stmt := fmt.Sprintf(`INSERT INTO Docs VALUES (%d, '%s')`, id, body)
	return execStep(fmt.Sprintf("insert doc %d", id), stmt,
		func(m *crashModel) { m.docs[id] = body })
}

func insertBagStep(name string, tags ...string) crashStep {
	return crashStep{
		name: "insert bag " + name,
		run: func(_ *extdb.DB, s *extdb.Session) error {
			elems := make([]extdb.Value, len(tags))
			for i, tg := range tags {
				elems[i] = extdb.Str(tg)
			}
			return s.InsertRow("Bags", []extdb.Value{extdb.Str(name), extdb.Arr(elems...)})
		},
		apply: func(m *crashModel) { m.bags[name] = tags },
	}
}

// crashSteps is the scripted workload. Each step is one transaction
// (autocommit, except the explicit BEGIN...COMMIT step), so the model is
// updated exactly when the step's commit is acknowledged.
func crashSteps() []crashStep {
	return []crashStep{
		{
			name:  "install text cartridge",
			run:   func(db *extdb.DB, s *extdb.Session) error { return extdb.InstallTextCartridge(db, s) },
			apply: func(m *crashModel) { m.textSetup = true },
		},
		{
			name:  "install colls cartridge",
			run:   func(db *extdb.DB, s *extdb.Session) error { return extdb.InstallCollsCartridge(db, s) },
			apply: func(m *crashModel) { m.collsSetup = true },
		},
		execStep("create Docs", `CREATE TABLE Docs(id NUMBER, body VARCHAR2)`,
			func(m *crashModel) { m.docsTable = true }),
		insertDocStep(1, "oracle and unix expert"),
		insertDocStep(2, "unix kernel hacker"),
		execStep("create DocsIdx",
			`CREATE INDEX DocsIdx ON Docs(body) INDEXTYPE IS TextIndexType`,
			func(m *crashModel) { m.docsIndex = true }),
		insertDocStep(3, "database internals and indexing"),
		execStep("create Bags", `CREATE TABLE Bags(name VARCHAR2, tags VARRAY)`,
			func(m *crashModel) { m.bagsTable = true }),
		execStep("create BagsIdx",
			`CREATE INDEX BagsIdx ON Bags(tags) INDEXTYPE IS CollIndexType`,
			func(m *crashModel) { m.bagsIndex = true }),
		insertBagStep("alice", "skiing", "chess"),
		insertBagStep("bob", "cooking"),
		insertBagStep("carol", "skiing", "cooking", "running"),
		execStep("update doc 2", `UPDATE Docs SET body = 'java guru' WHERE id = 2`,
			func(m *crashModel) { m.docs[2] = "java guru" }),
		execStep("delete doc 3", `DELETE FROM Docs WHERE id = 3`,
			func(m *crashModel) { delete(m.docs, 3) }),
		{
			name:  "checkpoint",
			run:   func(db *extdb.DB, _ *extdb.Session) error { return db.Checkpoint() },
			apply: func(*crashModel) {},
		},
		insertDocStep(4, "spatial indexing with oracle"),
		insertBagStep("dave", "golf"),
		execStep("delete bag bob", `DELETE FROM Bags WHERE name = 'bob'`,
			func(m *crashModel) { delete(m.bags, "bob") }),
		{
			name: "explicit txn inserts docs 5 and 6",
			run: func(_ *extdb.DB, s *extdb.Session) error {
				if err := s.Begin(); err != nil {
					return err
				}
				for _, stmt := range []string{
					`INSERT INTO Docs VALUES (5, 'unix sysadmin')`,
					`INSERT INTO Docs VALUES (6, 'oracle dba')`,
				} {
					if _, err := s.Exec(stmt); err != nil {
						_ = s.Rollback()
						return err
					}
				}
				return s.Commit()
			},
			apply: func(m *crashModel) {
				m.docs[5] = "unix sysadmin"
				m.docs[6] = "oracle dba"
			},
		},
		execStep("update bag carol via delete", `DELETE FROM Bags WHERE name = 'carol'`,
			func(m *crashModel) { delete(m.bags, "carol") }),
		insertBagStep("carol", "skiing", "golf"),
	}
}

// ---------------------------------------------------------------------------
// Harness

type crashMedia struct {
	backend *storage.MemBackend
	sink    storage.WALSink
}

// newCrashMedia builds durable media for one crash scenario. segBytes = 0
// selects the flat append-only MemWALSink; segBytes > 0 selects the
// segmented sink with that per-segment payload capacity, so the same
// matrix also power-fails at segment boundaries, header activations, and
// checkpoint-time segment recycling.
func newCrashMedia(segBytes int64) crashMedia {
	m := crashMedia{backend: storage.NewMemBackend()}
	if segBytes > 0 {
		m.sink = storage.NewMemSegmentedSink(segBytes)
	} else {
		m.sink = storage.NewMemWALSink()
	}
	return m
}

// runWorkload opens a database over fault-wrapped media, runs the
// scripted steps until the first error, and returns the model of
// acknowledged steps, per-step op boundaries (inj.Ops() after each
// completed step), and the first error with its step index.
func runWorkload(t *testing.T, media crashMedia, inj *fault.Injector) (m *crashModel, bounds []int, failedStep int, runErr error) {
	t.Helper()
	db, err := extdb.Open(extdb.Options{
		Backend:        fault.NewBackend(inj, media.backend),
		WALSink:        fault.NewSink(inj, media.sink),
		CacheSizePages: 64,
	})
	if err != nil {
		// Open on fresh media performs no fault-eligible operations.
		t.Fatalf("open over fault media: %v", err)
	}
	s := db.NewSession()
	m = newCrashModel()
	for i, st := range crashSteps() {
		if err := st.run(db, s); err != nil {
			return m, bounds, i, err
		}
		st.apply(m)
		bounds = append(bounds, inj.Ops())
	}
	// The workload survived every step; Close may still hit the fault.
	if err := db.Close(); err != nil {
		return m, bounds, len(crashSteps()), err
	}
	bounds = append(bounds, inj.Ops())
	return m, bounds, -1, nil
}

// reopenDurable reopens the database on the raw (durable) media —
// exactly what a restart after power loss sees — and re-registers the
// cartridges' process state, like reloading cartridge libraries at
// instance startup.
func reopenDurable(t *testing.T, media crashMedia, label string) (*extdb.DB, *extdb.Session) {
	t.Helper()
	db, err := extdb.Open(extdb.Options{Backend: media.backend, WALSink: media.sink})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	if err := text.Register(db); err != nil {
		t.Fatalf("%s: re-register text cartridge: %v", label, err)
	}
	if err := colls.Register(db); err != nil {
		t.Fatalf("%s: re-register colls cartridge: %v", label, err)
	}
	return db, db.NewSession()
}

func sortedInt64(xs []int64) []int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

func queryDocIDs(t *testing.T, s *extdb.Session, forced, word, label string) []int64 {
	t.Helper()
	s.SetForcedPath(forced)
	defer s.SetForcedPath(extdb.ForceAuto)
	rs, err := s.Query(fmt.Sprintf(`SELECT id FROM Docs WHERE Contains(body, '%s')`, word))
	if err != nil {
		t.Fatalf("%s: Contains(%q) via %s: %v", label, word, forced, err)
	}
	var ids []int64
	for _, r := range rs.Rows {
		ids = append(ids, r[0].Int64())
	}
	return sortedInt64(ids)
}

func queryBagNames(t *testing.T, s *extdb.Session, forced, tag, label string) []string {
	t.Helper()
	s.SetForcedPath(forced)
	defer s.SetForcedPath(extdb.ForceAuto)
	rs, err := s.Query(`SELECT name FROM Bags WHERE CollContains(tags, ?) ORDER BY name`, extdb.Str(tag))
	if err != nil {
		t.Fatalf("%s: CollContains(%q) via %s: %v", label, tag, forced, err)
	}
	var names []string
	for _, r := range rs.Rows {
		names = append(names, r[0].Text())
	}
	return names
}

// verifyDurable asserts the reopened database matches the model in both
// directions: acknowledged data present, unacknowledged data absent, and
// the domain indexes agreeing with full scans.
func verifyDurable(t *testing.T, media crashMedia, m *crashModel, label string) storage.RecoveryInfo {
	t.Helper()
	db, s := reopenDurable(t, media, label)
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close recovered database: %v", label, err)
		}
	}()
	info := db.RecoveryInfo()

	// Docs heap vs model.
	rs, err := s.Query(`SELECT id, body FROM Docs ORDER BY id`)
	if m.docsTable {
		if err != nil {
			t.Fatalf("%s: scan Docs: %v", label, err)
		}
		got := map[int64]string{}
		for _, r := range rs.Rows {
			got[r[0].Int64()] = r[1].Text()
		}
		if !reflect.DeepEqual(got, m.docs) {
			t.Fatalf("%s: Docs after recovery = %v, want %v", label, got, m.docs)
		}
	} else if err == nil {
		t.Fatalf("%s: Docs exists although its CREATE TABLE was never acknowledged", label)
	}

	// Bags heap vs model.
	rs, err = s.Query(`SELECT name FROM Bags ORDER BY name`)
	if m.bagsTable {
		if err != nil {
			t.Fatalf("%s: scan Bags: %v", label, err)
		}
		var got []string
		for _, r := range rs.Rows {
			got = append(got, r[0].Text())
		}
		var want []string
		for name := range m.bags {
			want = append(want, name)
		}
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Bags after recovery = %v, want %v", label, got, want)
		}
	} else if err == nil {
		t.Fatalf("%s: Bags exists although its CREATE TABLE was never acknowledged", label)
	}

	// Text heap/index agreement: the recovered domain index must return
	// exactly what a full scan (functional evaluation) returns.
	if m.docsTable && m.docsIndex {
		for _, word := range []string{"unix", "oracle", "indexing", "golf"} {
			full := queryDocIDs(t, s, extdb.ForceFullScan, word, label)
			dom := queryDocIDs(t, s, extdb.ForceDomainScan, word, label)
			if !reflect.DeepEqual(full, dom) {
				t.Fatalf("%s: Contains(%q): full scan %v != domain scan %v",
					label, word, full, dom)
			}
		}
	}

	// Colls heap/index agreement plus a naive membership oracle.
	if m.bagsTable {
		for _, tag := range []string{"skiing", "cooking", "golf", "chess", "absent"} {
			var naive []string
			for name, tags := range m.bags {
				for _, tg := range tags {
					if tg == tag {
						naive = append(naive, name)
						break
					}
				}
			}
			sort.Strings(naive)
			full := queryBagNames(t, s, extdb.ForceFullScan, tag, label)
			if !reflect.DeepEqual(full, naive) {
				t.Fatalf("%s: CollContains(%q): full scan %v != oracle %v",
					label, tag, full, naive)
			}
			if m.bagsIndex {
				dom := queryBagNames(t, s, extdb.ForceDomainScan, tag, label)
				if !reflect.DeepEqual(dom, naive) {
					t.Fatalf("%s: CollContains(%q): domain scan %v != oracle %v",
						label, tag, dom, naive)
				}
			}
		}
	}
	return info
}

// runPassive runs the whole workload with an empty fault plan; every
// step and the final Close must succeed. It returns the op boundaries
// (bounds[i] = ops consumed through step i; the last entry includes
// Close) and the durable media.
func runPassive(t *testing.T, segBytes int64) (crashMedia, *crashModel, []int) {
	t.Helper()
	media := newCrashMedia(segBytes)
	inj := fault.NewInjector()
	m, bounds, failed, err := runWorkload(t, media, inj)
	if err != nil {
		t.Fatalf("passive run failed at step %d (%s): %v", failed, crashSteps()[failed].name, err)
	}
	return media, m, bounds
}

func runCrashPoint(t *testing.T, segBytes int64, point int, action fault.Action, label string) {
	t.Helper()
	media := newCrashMedia(segBytes)
	inj := fault.NewInjector().Set(point, action)
	m, _, failed, err := runWorkload(t, media, inj)
	if failed >= 0 && !errors.Is(err, fault.ErrCrashed) && !errors.Is(err, extdb.ErrWALBroken) {
		t.Fatalf("%s: step %d (%s) failed with unexpected error: %v",
			label, failed, crashSteps()[failed].name, err)
	}
	if !inj.Crashed() {
		t.Fatalf("%s: fault point never reached", label)
	}
	verifyDurable(t, media, m, label)
}

// ---------------------------------------------------------------------------
// Tests

// TestCrashBaselineDurability is the matrix's control: with no fault
// injected, the durable media reopen to exactly the full model.
func TestCrashBaselineDurability(t *testing.T) {
	media, m, bounds := runPassive(t, 0)
	if len(bounds) != len(crashSteps())+1 {
		t.Fatalf("bounds = %d entries, want %d", len(bounds), len(crashSteps())+1)
	}
	total := bounds[len(bounds)-1]
	if total < 30 {
		t.Fatalf("suspiciously few fault-eligible ops in workload: %d", total)
	}
	verifyDurable(t, media, m, "baseline")
}

// TestCrashMatrixEveryPoint simulates power loss at every fault-eligible
// operation of the workload (page writes, page-file syncs, log appends,
// log syncs, log truncations — commit and checkpoint paths included) and
// verifies recovery after each.
func TestCrashMatrixEveryPoint(t *testing.T) {
	_, _, bounds := runPassive(t, 0)
	total := bounds[len(bounds)-1]
	for point := 1; point <= total; point++ {
		runCrashPoint(t, 0, point, fault.Crash, fmt.Sprintf("crash@%d", point))
	}
}

// TestCrashMatrixTornWrites repeats the sweep with torn power loss: the
// operation in flight makes a prefix of its writes durable and tears the
// page or log record it stopped in. Recovery must detect the tear by
// checksum and repair it from the log.
func TestCrashMatrixTornWrites(t *testing.T) {
	_, _, bounds := runPassive(t, 0)
	total := bounds[len(bounds)-1]
	for point := 1; point <= total; point++ {
		runCrashPoint(t, 0, point, fault.CrashTorn, fmt.Sprintf("torn@%d", point))
	}
}

// TestCrashTornCheckpointRepairsPageFile aims a torn power loss at the
// checkpoint's page-file sync: the flush applies half its pages and
// tears one in the middle. Replay must notice the damage (checksum
// mismatch against the logged image) and repair the page file.
func TestCrashTornCheckpointRepairsPageFile(t *testing.T) {
	_, _, bounds := runPassive(t, 0)
	ckpt := -1
	for i, st := range crashSteps() {
		if st.name == "checkpoint" {
			ckpt = i
		}
	}
	if ckpt < 0 {
		t.Fatal("no checkpoint step in workload")
	}
	// Checkpoint ops: log appends + log sync (commit protocol), page
	// writes (flush), page-file sync, log truncation. The page-file sync
	// is the second-to-last op of the step.
	point := bounds[ckpt] - 1

	media := newCrashMedia(0)
	inj := fault.NewInjector().Set(point, fault.CrashTorn)
	m, _, failed, err := runWorkload(t, media, inj)
	if failed != ckpt {
		t.Fatalf("crash landed in step %d, want checkpoint step %d (err=%v)", failed, ckpt, err)
	}
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("checkpoint failed with %v, want simulated power loss", err)
	}
	info := verifyDurable(t, media, m, "torn-checkpoint")
	if info.Commits == 0 {
		t.Fatalf("recovery applied no commits: %+v", info)
	}
	if info.PagesRepaired == 0 {
		t.Fatalf("torn checkpoint flush left no page to repair: %+v", info)
	}
}

// TestCrashFailedSyncPoisonsWAL injects a plain I/O failure (no power
// loss) into a commit's log sync: the statement must fail and roll back,
// later commits must be refused with ErrWALBroken (the log tail is
// suspect), and reopening must recover every acknowledged commit and
// nothing else.
func TestCrashFailedSyncPoisonsWAL(t *testing.T) {
	_, _, bounds := runPassive(t, 0)
	victim := -1
	for i, st := range crashSteps() {
		if st.name == "insert doc 3" {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no victim step")
	}
	// The last op of an autocommit DML step is its commit's log sync.
	point := bounds[victim]

	media := newCrashMedia(0)
	inj := fault.NewInjector().Set(point, fault.Fail)
	db, err := extdb.Open(extdb.Options{
		Backend:        fault.NewBackend(inj, media.backend),
		WALSink:        fault.NewSink(inj, media.sink),
		CacheSizePages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	m := newCrashModel()
	steps := crashSteps()
	for i := 0; i < victim; i++ {
		if err := steps[i].run(db, s); err != nil {
			t.Fatalf("step %d (%s): %v", i, steps[i].name, err)
		}
		steps[i].apply(m)
	}
	if err := steps[victim].run(db, s); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("victim step error = %v, want injected I/O error", err)
	}
	// The statement rolled back in memory: the row is absent now...
	if rs, err := s.Query(`SELECT id FROM Docs WHERE id = 3`); err != nil || len(rs.Rows) != 0 {
		t.Fatalf("failed insert visible after rollback: rows=%v err=%v", rs, err)
	}
	// ...and the log is poisoned: further commits are refused.
	if _, err := s.Exec(`INSERT INTO Docs VALUES (9, 'never committed')`); !errors.Is(err, extdb.ErrWALBroken) {
		t.Fatalf("commit after failed log sync = %v, want ErrWALBroken", err)
	}
	if err := db.Close(); !errors.Is(err, extdb.ErrWALBroken) {
		t.Fatalf("close of poisoned database = %v, want ErrWALBroken", err)
	}
	verifyDurable(t, media, m, "poisoned-wal")
}

// TestCrashRecoveryIsIdempotent crashes mid-workload, then "crashes"
// again before the post-recovery checkpoint ever runs by replaying the
// same durable media twice; both recoveries must agree.
func TestCrashRecoveryIsIdempotent(t *testing.T) {
	_, _, bounds := runPassive(t, 0)
	// A point late in the workload, inside the post-checkpoint region.
	point := bounds[len(bounds)-2] - 1

	media := newCrashMedia(0)
	inj := fault.NewInjector().Set(point, fault.Crash)
	m, _, failed, err := runWorkload(t, media, inj)
	if failed < 0 {
		t.Fatalf("workload survived a crash plan (err=%v)", err)
	}
	// First recovery replays the log; its closing checkpoint truncates
	// it. The second reopen must find an already-consistent image.
	verifyDurable(t, media, m, "first recovery")
	info := verifyDurable(t, media, m, "second recovery")
	if info.Commits != 0 || info.Records != 0 {
		t.Fatalf("second recovery replayed a log the first should have truncated: %+v", info)
	}
}

// TestCrashMultiSessionIsolation exercises recovery with more than one
// session in flight on a domain-indexed table. Writers to it admit
// shared like every other writer (see the concurrent matrix in
// crash_concurrent_test.go); page ownership keeps them apart. The test
// pins both halves of that contract:
//
//   - a write to the domain-indexed table in another session, which
//     touches pages the open transaction owns, aborts with
//     storage.ErrWriteConflict instead of committing the open
//     transaction's in-flight heap or index pages, and succeeds when
//     retried after that transaction commits;
//   - after a crash with a write transaction open, its changes are gone
//     on reopen while everything acknowledged before the crash survives,
//     with heap/index agreement.
func TestCrashMultiSessionIsolation(t *testing.T) {
	media := newCrashMedia(0)
	inj := fault.NewInjector()
	db, err := extdb.Open(extdb.Options{
		Backend: fault.NewBackend(inj, media.backend),
		WALSink: fault.NewSink(inj, media.sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	sA, sB := db.NewSession(), db.NewSession()
	if err := extdb.InstallTextCartridge(db, sA); err != nil {
		t.Fatal(err)
	}
	mustExec := func(s *extdb.Session, stmt string) {
		t.Helper()
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	mustExec(sA, `CREATE TABLE Docs(id NUMBER, body VARCHAR2)`)
	mustExec(sA, `CREATE INDEX DocsIdx ON Docs(body) INDEXTYPE IS TextIndexType`)
	mustExec(sA, `INSERT INTO Docs VALUES (1, 'unix basics')`)

	// B opens a transaction and writes the domain-indexed table; it now
	// owns the heap tail and the index pages it touched.
	if err := sB.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(sB, `INSERT INTO Docs VALUES (2, 'unix kernel')`)
	mustExec(sB, `INSERT INTO Docs VALUES (3, 'oracle tuning')`)

	// A's autocommit write to the same domain-indexed table must not
	// commit while B is open: its commit would durably log B's in-flight
	// pages. It touches B's pages, so it aborts; the retry after B's
	// commit goes through.
	if _, err := sA.Exec(`INSERT INTO Docs VALUES (4, 'unix shell')`); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("concurrent write while another write transaction was open: got %v, want ErrWriteConflict", err)
	}
	if err := sB.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(sA, `INSERT INTO Docs VALUES (4, 'unix shell')`)

	// A second transaction is open and dirty at the moment of power loss;
	// another session's write on its pages aborts, so nothing commits it.
	if err := sB.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(sB, `INSERT INTO Docs VALUES (5, 'never committed')`)
	if _, err := sA.Exec(`INSERT INTO Docs VALUES (6, 'also never committed')`); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("concurrent write while another write transaction was open: got %v, want ErrWriteConflict", err)
	}
	inj.CrashNow()
	// Tear the dead process down.
	_ = sB.Rollback()

	// Reopen the durable media: docs 1-4 were acknowledged, 5 and 6 never.
	db2, s2 := reopenDurable(t, media, "multi-session")
	defer func() {
		if err := db2.Close(); err != nil {
			t.Fatalf("close recovered database: %v", err)
		}
	}()
	rs, err := s2.Query(`SELECT id FROM Docs ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, r := range rs.Rows {
		ids = append(ids, r[0].Int64())
	}
	if want := []int64{1, 2, 3, 4}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("Docs after crash with open transaction = %v, want %v", ids, want)
	}
	for _, word := range []string{"unix", "oracle", "committed"} {
		full := queryDocIDs(t, s2, extdb.ForceFullScan, word, "multi-session")
		dom := queryDocIDs(t, s2, extdb.ForceDomainScan, word, "multi-session")
		if !reflect.DeepEqual(full, dom) {
			t.Fatalf("Contains(%q): full scan %v != domain scan %v", word, full, dom)
		}
	}
}

// leakySink models the OS page cache under a real file WAL: Append
// reaches durable media immediately (as a buffered write may), while
// Sync can fail. A commit whose sync failed is reported rolled back —
// its record must then never replay as committed, even though the
// append itself became durable.
type leakySink struct {
	*storage.MemWALSink
	failNextSync bool
}

func (s *leakySink) Sync() error {
	if s.failNextSync {
		s.failNextSync = false
		return errors.New("leaky: injected sync failure")
	}
	return s.MemWALSink.Sync()
}

// TestCrashFailedSyncDoesNotResurrect is the reopen half of WAL
// poisoning: after a commit's log sync fails and the transaction is
// rolled back, reopening the database must not resurrect it from log
// bytes that happened to reach durable media before the failed sync.
func TestCrashFailedSyncDoesNotResurrect(t *testing.T) {
	backend := storage.NewMemBackend()
	sink := &leakySink{MemWALSink: storage.NewMemWALSink()}
	db, err := extdb.Open(extdb.Options{Backend: backend, WALSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE Docs(id NUMBER, body VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO Docs VALUES (1, 'survives')`); err != nil {
		t.Fatal(err)
	}

	sink.failNextSync = true
	if _, err := s.Exec(`INSERT INTO Docs VALUES (2, 'rolled back')`); err == nil {
		t.Fatal("commit with failing log sync reported success")
	}
	if _, err := s.Exec(`INSERT INTO Docs VALUES (3, 'refused')`); !errors.Is(err, extdb.ErrWALBroken) {
		t.Fatalf("commit after failed sync = %v, want ErrWALBroken", err)
	}
	if err := db.Close(); !errors.Is(err, extdb.ErrWALBroken) {
		t.Fatalf("close of poisoned database = %v, want ErrWALBroken", err)
	}

	db2, err := extdb.Open(extdb.Options{Backend: backend, WALSink: sink})
	if err != nil {
		t.Fatalf("reopen after failed sync: %v", err)
	}
	defer func() {
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	rs, err := db2.NewSession().Query(`SELECT id FROM Docs ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, r := range rs.Rows {
		ids = append(ids, r[0].Int64())
	}
	if want := []int64{1}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("Docs after reopen = %v, want %v (the rolled-back insert must not resurrect)", ids, want)
	}
}

// TestCrashCheckpointRefusedWithOpenTxn pins Checkpoint's enforcement:
// while a write transaction is open it returns ErrTxnOpen instead of
// durably committing uncommitted pages, Close degrades to a discard
// (recovery's job), and reopening shows only acknowledged data. An
// in-memory database runs the same commit path over its own memory log,
// so the refusal holds there too (it has nothing to reopen).
func TestCrashCheckpointRefusedWithOpenTxn(t *testing.T) {
	backend := storage.NewMemBackend()
	sink := storage.NewMemWALSink()
	for _, tc := range []struct {
		name   string
		opts   extdb.Options
		reopen bool
	}{
		{"injected-log", extdb.Options{Backend: backend, WALSink: sink}, true},
		{"in-memory", extdb.Options{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := extdb.Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			s := db.NewSession()
			if _, err := s.Exec(`CREATE TABLE Docs(id NUMBER, body VARCHAR2)`); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec(`INSERT INTO Docs VALUES (1, 'committed')`); err != nil {
				t.Fatal(err)
			}
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec(`INSERT INTO Docs VALUES (2, 'uncommitted')`); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); !errors.Is(err, extdb.ErrTxnOpen) {
				t.Fatalf("checkpoint with open write transaction = %v, want ErrTxnOpen", err)
			}
			// Close cannot checkpoint either; it must not flush the open
			// transaction's pages on its way out.
			if err := db.Close(); !errors.Is(err, extdb.ErrTxnOpen) {
				t.Fatalf("close with open write transaction = %v, want ErrTxnOpen", err)
			}
			if !tc.reopen {
				return
			}

			db2, err := extdb.Open(tc.opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer func() {
				if err := db2.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			rs, err := db2.NewSession().Query(`SELECT id FROM Docs ORDER BY id`)
			if err != nil {
				t.Fatal(err)
			}
			var ids []int64
			for _, r := range rs.Rows {
				ids = append(ids, r[0].Int64())
			}
			if want := []int64{1}; !reflect.DeepEqual(ids, want) {
				t.Fatalf("Docs after discarding close = %v, want %v (uncommitted data leaked)", ids, want)
			}
		})
	}
}

// TestCrashWALSurvivesMidWorkloadReopen covers the no-crash restart: a
// database closed cleanly mid-workload reopens with an empty log (Close
// checkpointed) and full data.
func TestCrashWALSurvivesMidWorkloadReopen(t *testing.T) {
	media := newCrashMedia(0)
	inj := fault.NewInjector()
	db, err := extdb.Open(extdb.Options{
		Backend: fault.NewBackend(inj, media.backend),
		WALSink: fault.NewSink(inj, media.sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	m := newCrashModel()
	steps := crashSteps()
	half := len(steps) / 2
	for i := 0; i < half; i++ {
		if err := steps[i].run(db, s); err != nil {
			t.Fatalf("step %d (%s): %v", i, steps[i].name, err)
		}
		steps[i].apply(m)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	info := verifyDurable(t, media, m, "clean mid-workload close")
	if info.Records != 0 {
		t.Fatalf("clean close left log records behind: %+v", info)
	}
}
