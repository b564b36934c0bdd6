package extdb_test

// Crash matrix for the two structures that live in pages without any
// dictionary help: a chemistry index whose records sit in a LOB (a
// header page listing its data pages) and a BITMAP index, which is
// derived data rebuilt from its heap on Open. The scripted workload
// grows the LOB over several pages, shrinks it to nothing with TRUNCATE
// TABLE (whose page frees wait for commit) and grows it again, and
// maintains the bitmap through INSERT, UPDATE and DELETE. Power fails at
// every fault point, plain and torn; after each crash the reopened
// database must hold exactly the acknowledged steps, with domain and
// bitmap access agreeing with full scans. A second sweep fails power
// between each DDL statement's dictionary-page records and its commit
// record: the DDL must be absent after recovery.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	extdb "repro"
	"repro/internal/cartridge/chem"
	"repro/internal/storage"
	"repro/internal/storage/fault"
)

// lbModel is the oracle of acknowledged steps.
type lbModel struct {
	molsTable bool
	molsIdx   bool
	empTable  bool
	empIdx    bool
	mols      map[int64]string
	emps      map[int64]string
}

func newLBModel() *lbModel {
	return &lbModel{mols: map[int64]string{}, emps: map[int64]string{}}
}

type lbStep struct {
	name  string
	ddl   bool
	run   func(db *extdb.DB, s *extdb.Session) error
	apply func(m *lbModel)
}

func lbExec(name, stmt string, apply func(m *lbModel)) lbStep {
	return lbStep{
		name:  name,
		ddl:   strings.HasPrefix(stmt, "CREATE") || strings.HasPrefix(stmt, "TRUNCATE"),
		run:   func(_ *extdb.DB, s *extdb.Session) error { _, err := s.Exec(stmt); return err },
		apply: apply,
	}
}

// lbInsertMols inserts molecules ids first..first+n-1 in one statement.
func lbInsertMols(first int64, n int) lbStep {
	g := chem.NewGenerator(first)
	mols := map[int64]string{}
	var rows []string
	for i := int64(0); i < int64(n); i++ {
		mols[first+i] = g.Next()
		rows = append(rows, fmt.Sprintf("(%d, '%s')", first+i, mols[first+i]))
	}
	return lbExec(fmt.Sprintf("insert mols %d..%d", first, first+int64(n)-1),
		`INSERT INTO Mols VALUES `+strings.Join(rows, ", "),
		func(m *lbModel) {
			for id, mol := range mols {
				m.mols[id] = mol
			}
		})
}

func lbSteps() []lbStep {
	return []lbStep{
		{
			name:  "install chem cartridge",
			run:   func(db *extdb.DB, s *extdb.Session) error { return extdb.InstallChemCartridge(db, s) },
			apply: func(*lbModel) {},
		},
		lbExec("create Mols", `CREATE TABLE Mols(id NUMBER, mol VARCHAR2)`,
			func(m *lbModel) { m.molsTable = true }),
		lbInsertMols(1, 20),
		lbExec("create MolsIdx", `CREATE INDEX MolsIdx ON Mols(mol) INDEXTYPE IS ChemIndexType`,
			func(m *lbModel) { m.molsIdx = true }),
		lbInsertMols(100, 40), // the index LOB now spans three pages
		lbExec("create Emp", `CREATE TABLE Emp(id NUMBER, dept VARCHAR2)`,
			func(m *lbModel) { m.empTable = true }),
		lbExec("insert emps", `INSERT INTO Emp VALUES (1, 'eng'), (2, 'ops'), (3, 'eng')`,
			func(m *lbModel) { m.emps[1], m.emps[2], m.emps[3] = "eng", "ops", "eng" }),
		lbExec("create EmpDept", `CREATE BITMAP INDEX EmpDept ON Emp(dept)`,
			func(m *lbModel) { m.empIdx = true }),
		lbExec("insert emp 4", `INSERT INTO Emp VALUES (4, 'ops')`,
			func(m *lbModel) { m.emps[4] = "ops" }),
		lbExec("update emp 2", `UPDATE Emp SET dept = 'eng' WHERE id = 2`,
			func(m *lbModel) { m.emps[2] = "eng" }),
		lbExec("delete mol 5", `DELETE FROM Mols WHERE id = 5`,
			func(m *lbModel) { delete(m.mols, 5) }),
		{
			name:  "checkpoint",
			run:   func(db *extdb.DB, _ *extdb.Session) error { return db.Checkpoint() },
			apply: func(*lbModel) {},
		},
		// ODCIIndexTruncate shrinks the index LOB to nothing; its pages are
		// freed only when the TRUNCATE commits, and the inserts after it
		// grow the LOB again on whatever the allocator hands out.
		lbExec("truncate Mols", `TRUNCATE TABLE Mols`,
			func(m *lbModel) { m.mols = map[int64]string{} }),
		lbInsertMols(200, 30),
		lbExec("delete emp 1", `DELETE FROM Emp WHERE id = 1`,
			func(m *lbModel) { delete(m.emps, 1) }),
		{
			name: "explicit txn: mol 300 and emp 5",
			run: func(_ *extdb.DB, s *extdb.Session) error {
				if err := s.Begin(); err != nil {
					return err
				}
				for _, stmt := range []string{
					`INSERT INTO Mols VALUES (300, 'CCCl')`,
					`INSERT INTO Emp VALUES (5, 'hr')`,
				} {
					if _, err := s.Exec(stmt); err != nil {
						_ = s.Rollback()
						return err
					}
				}
				return s.Commit()
			},
			apply: func(m *lbModel) { m.mols[300], m.emps[5] = "CCCl", "hr" },
		},
		lbInsertMols(400, 10),
	}
}

// runLB runs the steps until the first error over a database opened on
// the given page store and log, returning the acknowledged model, the op
// boundaries after each step (and after Close), and the failing step.
// arm, when non-nil, is called before each step with its index.
func runLB(t *testing.T, backend storage.Backend, sink storage.WALSink, inj *fault.Injector, arm func(step int)) (*lbModel, []int, int, error) {
	t.Helper()
	db, err := extdb.Open(extdb.Options{Backend: backend, WALSink: sink, CacheSizePages: 64})
	if err != nil {
		t.Fatalf("open over fault media: %v", err)
	}
	s := db.NewSession()
	m := newLBModel()
	var bounds []int
	for i, st := range lbSteps() {
		if arm != nil {
			arm(i)
		}
		if err := st.run(db, s); err != nil {
			return m, bounds, i, err
		}
		st.apply(m)
		bounds = append(bounds, inj.Ops())
	}
	if err := db.Close(); err != nil {
		return m, bounds, len(lbSteps()), err
	}
	return m, append(bounds, inj.Ops()), -1, nil
}

// verifyLB reopens the durable media and checks them against the model.
func verifyLB(t *testing.T, media crashMedia, m *lbModel, label string) storage.RecoveryInfo {
	t.Helper()
	db, err := extdb.Open(extdb.Options{Backend: media.backend, WALSink: media.sink})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close recovered database: %v", label, err)
		}
	}()
	if _, err := chem.Register(db); err != nil {
		t.Fatalf("%s: re-register chem cartridge: %v", label, err)
	}
	s := db.NewSession()
	for name, want := range map[string]bool{"MolsIdx": m.molsIdx, "EmpDept": m.empIdx} {
		if _, got := db.Catalog().Index(name); got != want {
			t.Fatalf("%s: index %s present = %v, want %v", label, name, got, want)
		}
	}

	rows := func(q string, forced string) map[int64]string {
		t.Helper()
		s.SetForcedPath(forced)
		defer s.SetForcedPath(extdb.ForceAuto)
		rs, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, q, err)
		}
		got := map[int64]string{}
		for _, r := range rs.Rows {
			got[r[0].Int64()] = r[1].Text()
		}
		return got
	}

	_, molsErr := s.Query(`SELECT id FROM Mols`)
	if m.molsTable != (molsErr == nil) {
		t.Fatalf("%s: Mols present = %v, want %v", label, molsErr == nil, m.molsTable)
	}
	if m.molsTable {
		if got := rows(`SELECT id, mol FROM Mols`, extdb.ForceFullScan); !reflect.DeepEqual(got, m.mols) {
			t.Fatalf("%s: Mols after recovery = %v, want %v", label, got, m.mols)
		}
		if m.molsIdx {
			for _, q := range []string{
				`SELECT id, mol FROM Mols WHERE ChemContains(mol, 'C')`,
				`SELECT id, mol FROM Mols WHERE ChemContains(mol, 'c1ccccc1')`,
				`SELECT id, mol FROM Mols WHERE ChemExact(mol, 'CCCl')`,
			} {
				full, dom := rows(q, extdb.ForceFullScan), rows(q, extdb.ForceDomainScan)
				if !reflect.DeepEqual(full, dom) {
					t.Fatalf("%s: %s: full scan %v != LOB index %v", label, q, full, dom)
				}
			}
		}
	}

	_, empErr := s.Query(`SELECT id FROM Emp`)
	if m.empTable != (empErr == nil) {
		t.Fatalf("%s: Emp present = %v, want %v", label, empErr == nil, m.empTable)
	}
	if m.empTable {
		if got := rows(`SELECT id, dept FROM Emp`, extdb.ForceFullScan); !reflect.DeepEqual(got, m.emps) {
			t.Fatalf("%s: Emp after recovery = %v, want %v", label, got, m.emps)
		}
		for _, dept := range []string{"eng", "ops", "hr"} {
			want := map[int64]string{}
			for id, d := range m.emps {
				if d == dept {
					want[id] = d
				}
			}
			q := fmt.Sprintf(`SELECT id, dept FROM Emp WHERE dept = '%s'`, dept)
			if got := rows(q, extdb.ForceIndexScan); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: dept %s through the index = %v, want %v", label, dept, got, want)
			}
		}
	}
	return db.RecoveryInfo()
}

// TestCrashMatrixLOBAndBitmap fails power at every fault point of the
// workload, plain and torn, and between each DDL statement's
// dictionary-page records and its commit record, and verifies recovery
// after each.
func TestCrashMatrixLOBAndBitmap(t *testing.T) {
	t.Run("EveryPoint", crashLBEveryPoint)
	t.Run("DDLCommitRecordLost", crashLBDDLCommitRecordLost)
}

func crashLBEveryPoint(t *testing.T) {
	media := newCrashMedia(0)
	inj := fault.NewInjector()
	m, bounds, failed, err := runLB(t, fault.NewBackend(inj, media.backend), fault.NewSink(inj, media.sink), inj, nil)
	if err != nil {
		t.Fatalf("passive run failed at step %d (%s): %v", failed, lbSteps()[failed].name, err)
	}
	verifyLB(t, media, m, "baseline")
	total := bounds[len(bounds)-1]
	for _, action := range []fault.Action{fault.Crash, fault.CrashTorn} {
		for point := 1; point <= total; point++ {
			label := fmt.Sprintf("action %d @%d", action, point)
			media := newCrashMedia(0)
			inj := fault.NewInjector().Set(point, action)
			m, _, failed, err := runLB(t, fault.NewBackend(inj, media.backend), fault.NewSink(inj, media.sink), inj, nil)
			if failed >= 0 && !errors.Is(err, fault.ErrCrashed) && !errors.Is(err, extdb.ErrWALBroken) {
				t.Fatalf("%s: step %d failed with unexpected error: %v", label, failed, err)
			}
			if !inj.Crashed() {
				t.Fatalf("%s: fault point never reached", label)
			}
			verifyLB(t, media, m, label)
		}
	}
}

// commitCutSink writes appends straight to durable media until armed;
// the next append then loses power after its page records reached the
// media and before its trailing commit record did.
type commitCutSink struct {
	storage.WALSink
	inj   *fault.Injector
	armed bool
	t     *testing.T
}

// commitRecordBytes is one commit record: header plus the 8-byte txn id.
const commitRecordBytes = 4 + 4 + 1 + 8 + 8

func (s *commitCutSink) Append(p []byte) error {
	if s.inj.Crashed() {
		return fault.ErrCrashed
	}
	if !s.armed {
		return s.WALSink.Append(p)
	}
	cut := len(p) - commitRecordBytes
	if cut <= 0 || p[cut+8] != 2 {
		s.t.Fatalf("armed append of %d bytes does not end in a commit record", len(p))
	}
	if err := s.WALSink.Append(p[:cut]); err != nil {
		return err
	}
	s.inj.CrashNow()
	return fault.ErrCrashed
}

func (s *commitCutSink) Sync() error  { return s.live(s.WALSink.Sync) }
func (s *commitCutSink) Reset() error { return s.live(s.WALSink.Reset) }
func (s *commitCutSink) Truncate(n int64) error {
	return s.live(func() error { return s.WALSink.Truncate(n) })
}

func (s *commitCutSink) live(op func() error) error {
	if s.inj.Crashed() {
		return fault.ErrCrashed
	}
	return op()
}

// crashLBDDLCommitRecordLost fails power between each DDL statement's
// dictionary-page records and its commit record: the page records are
// durable, the commit record is not, so recovery must discard the batch
// and the DDL must be absent.
func crashLBDDLCommitRecordLost(t *testing.T) {
	swept := 0
	for i, st := range lbSteps() {
		if !st.ddl {
			continue
		}
		swept++
		label := "lost commit of " + st.name
		media := newCrashMedia(0)
		inj := fault.NewInjector()
		sink := &commitCutSink{WALSink: media.sink, inj: inj, t: t}
		m, _, failed, err := runLB(t, fault.NewBackend(inj, media.backend), sink, inj, func(step int) { sink.armed = step == i })
		if failed != i || !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("%s: failed at step %d with %v, want step %d to lose power", label, failed, err, i)
		}
		info := verifyLB(t, media, m, label)
		if info.DiscardedPages == 0 {
			t.Fatalf("%s: recovery discarded no pages: %+v", label, info)
		}
	}
	if swept < 4 {
		t.Fatalf("only %d DDL steps swept", swept)
	}
}
