package chem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/types"
)

func mustParse(t testing.TB, s string) *Molecule {
	t.Helper()
	m, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return m
}

func TestParseBasics(t *testing.T) {
	m := mustParse(t, "CCO") // ethanol
	if m.NumAtoms() != 3 || m.Atoms[2].Elem != "O" {
		t.Errorf("ethanol = %+v", m.Atoms)
	}
	if len(m.Adj[1]) != 2 {
		t.Errorf("middle carbon has %d bonds", len(m.Adj[1]))
	}
	m = mustParse(t, "CC(=O)N") // acetamide
	if m.NumAtoms() != 4 {
		t.Errorf("acetamide atoms = %d", m.NumAtoms())
	}
	// The C=O bond is double.
	foundDouble := false
	for _, b := range m.Adj[1] {
		if m.Atoms[b.To].Elem == "O" && b.Order == BondDouble {
			foundDouble = true
		}
	}
	if !foundDouble {
		t.Error("carbonyl double bond missing")
	}
	m = mustParse(t, "c1ccccc1") // benzene
	if m.NumAtoms() != 6 {
		t.Errorf("benzene atoms = %d", m.NumAtoms())
	}
	for i := 0; i < 6; i++ {
		if !m.Atoms[i].Aromatic || len(m.Adj[i]) != 2 {
			t.Fatalf("benzene atom %d: %+v adj %d", i, m.Atoms[i], len(m.Adj[i]))
		}
		for _, b := range m.Adj[i] {
			if b.Order != BondAromatic {
				t.Fatal("benzene bond not aromatic")
			}
		}
	}
	m = mustParse(t, "ClCCBr")
	if m.Atoms[0].Elem != "Cl" || m.Atoms[3].Elem != "Br" {
		t.Errorf("halogens = %+v", m.Atoms)
	}
	m = mustParse(t, "C1CCCCC1") // cyclohexane
	if m.NumAtoms() != 6 || len(m.Adj[0]) != 2 {
		t.Error("cyclohexane ring closure failed")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "C(", "C)", "C1CC", "(C)", "1CC", "CXC", "C#"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
	// "C#" : dangling bond symbol at end is tolerated? It leaves pending
	// bond unused — ensure consistent behavior either way by parsing "C#C".
	if _, err := Parse("C#C"); err != nil {
		t.Error("triple bond rejected")
	}
}

func TestCanonicalKeyInvariance(t *testing.T) {
	// The same structure written differently must share a canonical key.
	pairs := [][2]string{
		{"CCO", "OCC"},
		{"CC(C)C", "C(C)(C)C"},
		{"C1CCCCC1", "C2CCCCC2"},
		{"c1ccccc1C", "Cc1ccccc1"},
		{"CC(=O)N", "NC(=O)C"},
	}
	for _, p := range pairs {
		a, b := mustParse(t, p[0]), mustParse(t, p[1])
		if a.CanonicalKey() != b.CanonicalKey() {
			t.Errorf("canonical keys differ for %q vs %q", p[0], p[1])
		}
	}
	// Different structures get different keys.
	diffs := [][2]string{
		{"CCO", "CCN"},
		{"CCO", "CC=O"}, // bond order matters
		{"C1CCCCC1", "c1ccccc1"},
		{"CCCC", "CC(C)C"},
	}
	for _, p := range diffs {
		a, b := mustParse(t, p[0]), mustParse(t, p[1])
		if a.CanonicalKey() == b.CanonicalKey() {
			t.Errorf("canonical keys collide for %q vs %q", p[0], p[1])
		}
	}
}

func TestTautomerKeyIgnoresBondOrders(t *testing.T) {
	a, b := mustParse(t, "CC=O"), mustParse(t, "CCO") // keto/enol skeletons
	if a.TautomerKey() != b.TautomerKey() {
		t.Error("tautomer key distinguishes bond orders")
	}
	c := mustParse(t, "CCN")
	if a.TautomerKey() == c.TautomerKey() {
		t.Error("tautomer key collides across elements")
	}
}

func TestFingerprintScreening(t *testing.T) {
	mol := mustParse(t, "CC(=O)Nc1ccccc1") // acetanilide-ish
	frag := mustParse(t, "c1ccccc1")
	other := mustParse(t, "CCCCS")
	if !mol.ComputeFP().Superset(frag.ComputeFP()) {
		t.Error("substructure fingerprint screen false negative")
	}
	if mol.ComputeFP().Superset(other.ComputeFP()) {
		t.Error("unrelated molecule passed the screen (possible but should not happen here)")
	}
	if Tanimoto(mol.ComputeFP(), mol.ComputeFP()) != 1 {
		t.Error("self Tanimoto != 1")
	}
	sim := Tanimoto(mol.ComputeFP(), other.ComputeFP())
	if sim < 0 || sim >= 1 {
		t.Errorf("cross Tanimoto = %v", sim)
	}
}

func TestIsSubstructure(t *testing.T) {
	cases := []struct {
		mol, query string
		want       bool
	}{
		{"CCO", "CO", true},
		{"CCO", "CN", false},
		{"CC(=O)N", "C=O", true},
		{"CC(=O)N", "CO", false}, // single C-O bond not present
		{"c1ccccc1CC", "c1ccccc1", true},
		{"C1CCCCC1", "c1ccccc1", false}, // aromaticity must match
		{"CC(C)(C)C", "CC(C)C", true},
		{"CCO", "CCCO", false}, // query larger
		{"ClCCBr", "Br", true},
	}
	for _, c := range cases {
		mol, q := mustParse(t, c.mol), mustParse(t, c.query)
		if got := IsSubstructure(q, mol); got != c.want {
			t.Errorf("IsSubstructure(%q in %q) = %v, want %v", c.query, c.mol, got, c.want)
		}
	}
}

func TestGeneratorProducesParseable(t *testing.T) {
	g := NewGenerator(9)
	for i := 0; i < 500; i++ {
		s := g.Next()
		if _, err := Parse(s); err != nil {
			t.Fatalf("generated unparseable %q: %v", s, err)
		}
	}
	withFrag := g.WithSubstructure("c1ccccc1")
	mol := mustParse(t, withFrag)
	if !IsSubstructure(mustParse(t, "c1ccccc1"), mol) {
		t.Errorf("WithSubstructure(%q) lost the fragment", withFrag)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	mol := mustParse(t, "CC(=O)Nc1ccccc1")
	rec := record{
		rid:    123456,
		smiles: mol.String(),
		fp:     mol.ComputeFP(),
		canon:  mol.CanonicalKey(),
		taut:   mol.TautomerKey(),
	}
	buf, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != recordSize {
		t.Fatalf("record size %d != %d", len(buf), recordSize)
	}
	got := decodeRecord(buf)
	if got.rid != rec.rid || got.smiles != rec.smiles || got.fp != rec.fp ||
		got.canon != rec.canon || got.taut != rec.taut || got.dead {
		t.Error("record round trip failed")
	}
}

// ---------------------------------------------------------------------------
// End-to-end

func newChemDB(t testing.TB, params string) (*engine.DB, *engine.Session) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := Register(db); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if err := Setup(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE TABLE compounds(id NUMBER, mol VARCHAR2)`); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(11)
	for i := 0; i < 300; i++ {
		var smiles string
		if i%10 == 0 {
			smiles = g.WithSubstructure("c1ccccc1")
		} else {
			smiles = g.Next()
		}
		if _, err := s.Exec(`INSERT INTO compounds VALUES (?, ?)`,
			types.Int(int64(i)), types.Str(smiles)); err != nil {
			t.Fatal(err)
		}
	}
	// A known exact target.
	if _, err := s.Exec(`INSERT INTO compounds VALUES (9999, 'CC(=O)Nc1ccccc1')`); err != nil {
		t.Fatal(err)
	}
	ddl := `CREATE INDEX mol_idx ON compounds(mol) INDEXTYPE IS ChemIndexType`
	if params != "" {
		ddl += fmt.Sprintf(" PARAMETERS ('%s')", params)
	}
	if _, err := s.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	return db, s
}

func TestChemOperatorsLOBAndFile(t *testing.T) {
	for _, mode := range []string{"", ":Storage file :Dir DIR"} {
		name := "lob"
		if mode != "" {
			name = "file"
		}
		t.Run(name, func(t *testing.T) {
			params := mode
			if params != "" {
				params = fmt.Sprintf(":Storage file :Dir %s", t.TempDir())
			}
			_, s := newChemDB(t, params)
			s.SetForcedPath(engine.ForceDomainScan)
			defer s.SetForcedPath(engine.ForceAuto)

			// Exact structure lookup (order-insensitive notation).
			rs, err := s.Query(`SELECT id FROM compounds WHERE ChemExact(mol, 'O=C(C)Nc1ccccc1')`)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 1 || rs.Rows[0][0].Int64() != 9999 {
				t.Errorf("exact lookup = %v", rs.Rows)
			}

			// Substructure selection: every 10th molecule embeds benzene,
			// plus the target.
			rs, err = s.Query(`SELECT id FROM compounds WHERE ChemContains(mol, 'c1ccccc1')`)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) < 31 {
				t.Errorf("substructure hits = %d, want >= 31", len(rs.Rows))
			}
			// Agreement with functional evaluation.
			s.SetForcedPath(engine.ForceFullScan)
			fn, err := s.Query(`SELECT id FROM compounds WHERE ChemContains(mol, 'c1ccccc1')`)
			s.SetForcedPath(engine.ForceDomainScan)
			if err != nil {
				t.Fatal(err)
			}
			if len(fn.Rows) != len(rs.Rows) {
				t.Errorf("functional %d vs indexed %d", len(fn.Rows), len(rs.Rows))
			}

			// Similarity / nearest-neighbor with ancillary score.
			rs, err = s.Query(`SELECT id, ChemScore(1) FROM compounds WHERE ChemSimilar(mol, 'CC(=O)Nc1ccccc1', 0.5, 1) LIMIT 5`)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) == 0 || rs.Rows[0][0].Int64() != 9999 || rs.Rows[0][1].Float() != 1 {
				t.Errorf("nearest neighbor = %v", rs.Rows)
			}
			prev := 2.0
			for _, r := range rs.Rows {
				if r[1].Float() > prev {
					t.Error("similarity not descending")
				}
				prev = r[1].Float()
			}

			// Tautomer lookup: skeleton-equal variant of the target.
			rs, err = s.Query(`SELECT id FROM compounds WHERE ChemTautomer(mol, 'CC(O)=Nc1ccccc1')`)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range rs.Rows {
				if r[0].Int64() == 9999 {
					found = true
				}
			}
			if !found {
				t.Errorf("tautomer lookup missed target: %v", rs.Rows)
			}
		})
	}
}

func TestChemMaintenanceAndRollbackLOB(t *testing.T) {
	_, s := newChemDB(t, "")
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	count := func() int {
		rs, err := s.Query(`SELECT id FROM compounds WHERE ChemExact(mol, 'CCCCCCCCCC')`)
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.Rows)
	}
	if count() != 0 {
		t.Fatal("decane already present")
	}
	if _, err := s.Exec(`INSERT INTO compounds VALUES (5000, 'CCCCCCCCCC')`); err != nil {
		t.Fatal(err)
	}
	if count() != 1 {
		t.Error("insert not reflected in LOB index")
	}
	// LOB-resident index data is transactional (§2.5): rollback reverts it.
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`DELETE FROM compounds WHERE id = 5000`); err != nil {
		t.Fatal(err)
	}
	if count() != 0 {
		t.Error("delete not visible inside transaction")
	}
	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if count() != 1 {
		t.Error("rollback did not restore LOB index entry")
	}
	if _, err := s.Exec(`DELETE FROM compounds WHERE id = 5000`); err != nil {
		t.Fatal(err)
	}
	if count() != 0 {
		t.Error("committed delete not reflected")
	}
}

func TestChemFileStoreRollbackNeedsEvents(t *testing.T) {
	// File-backed index without events: rollback leaves a stale entry.
	_, s := newChemDB(t, fmt.Sprintf(":Storage file :Dir %s", t.TempDir()))
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	s.Exec(`BEGIN`)
	if _, err := s.Exec(`INSERT INTO compounds VALUES (6000, 'CCCCCCCCCC')`); err != nil {
		t.Fatal(err)
	}
	s.Exec(`ROLLBACK`)
	// The base table has no row, but the file index does: the scan
	// surfaces a dangling RID as an error.
	if _, err := s.Query(`SELECT id FROM compounds WHERE ChemExact(mol, 'CCCCCCCCCC')`); err == nil {
		t.Error("file store consistent after rollback without events; expected stale entry")
	}

	// With events, the compensation handler repairs the file store.
	_, s2 := newChemDB(t, fmt.Sprintf(":Storage file :Dir %s :Events on", t.TempDir()))
	s2.SetForcedPath(engine.ForceDomainScan)
	s2.Exec(`BEGIN`)
	if _, err := s2.Exec(`INSERT INTO compounds VALUES (6000, 'CCCCCCCCCC')`); err != nil {
		t.Fatal(err)
	}
	s2.Exec(`ROLLBACK`)
	rs, err := s2.Query(`SELECT id FROM compounds WHERE ChemExact(mol, 'CCCCCCCCCC')`)
	if err != nil {
		t.Fatalf("query after evented rollback: %v", err)
	}
	if len(rs.Rows) != 0 {
		t.Errorf("stale entries after evented rollback: %v", rs.Rows)
	}
}

// TestChemFailedCreateCanBeRetried: a CREATE INDEX whose build fails on
// a bad molecule leaves the cartridge able to create that index once the
// row is gone, in both storage modes.
func TestChemFailedCreateCanBeRetried(t *testing.T) {
	for _, mode := range []string{"lob", "file"} {
		t.Run(mode, func(t *testing.T) {
			db, err := engine.Open(engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := Register(db); err != nil {
				t.Fatal(err)
			}
			s := db.NewSession()
			if err := Setup(s); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				`CREATE TABLE mols(id NUMBER, mol VARCHAR2)`,
				`INSERT INTO mols VALUES (1, 'CCO')`,
				`INSERT INTO mols VALUES (2, '(C')`,
			} {
				if _, err := s.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			ddl := `CREATE INDEX mols_c ON mols(mol) INDEXTYPE IS ChemIndexType`
			if mode == "file" {
				ddl += fmt.Sprintf(" PARAMETERS (':Storage file :Dir %s')", t.TempDir())
			}
			if _, err := s.Exec(ddl); err == nil || !strings.Contains(err.Error(), "branch before any atom") {
				t.Fatalf("CREATE INDEX over a bad molecule: got %v, want the parse error", err)
			}
			if _, err := s.Exec(`DELETE FROM mols WHERE id = 2`); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec(ddl); err != nil {
				t.Fatalf("CREATE INDEX retry after the failed build: %v", err)
			}
			s.SetForcedPath(engine.ForceDomainScan)
			rs, err := s.Query(`SELECT id FROM mols WHERE ChemExact(mol, 'OCC')`)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 1 || rs.Rows[0][0].Int64() != 1 {
				t.Fatalf("lookup through the retried index = %v", rs.Rows)
			}
		})
	}
}

// TestChemCreateRejectsDuplicate runs the duplicate-index branch of
// Create. The engine's catalog refuses a second index of the same name
// before the cartridge is called, so the test calls the method directly,
// with a callback server for an index the cartridge already holds.
func TestChemCreateRejectsDuplicate(t *testing.T) {
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := Register(db)
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	if err := Setup(s); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`CREATE TABLE mols(id NUMBER, mol VARCHAR2)`,
		`INSERT INTO mols VALUES (1, 'CCO')`,
		`CREATE INDEX mols_c ON mols(mol) INDEXTYPE IS ChemIndexType`,
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	info := extidx.IndexInfo{IndexName: "MOLS_C", TableName: "MOLS", ColumnName: "MOL", ColumnKind: types.KindString}
	err = m.Create(s.CallbackServer(extidx.ModeDefinition, "MOLS"), info)
	if err == nil || !strings.Contains(err.Error(), "MOLS_C already exists") {
		t.Fatalf("second Create of MOLS_C: got %v, want the duplicate-index error", err)
	}
	// The refused Create leaves the existing index serving scans.
	s.SetForcedPath(engine.ForceDomainScan)
	rs, err := s.Query(`SELECT id FROM mols WHERE ChemExact(mol, 'OCC')`)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("scan after the refused Create: %v rows, err %v", rs, err)
	}
}

// TestChemFileStoreRollbackKeepsLaterRecords: with ':Events on', rolling
// back an insert must not take out records another transaction appended
// to the file store after it and committed.
func TestChemFileStoreRollbackKeepsLaterRecords(t *testing.T) {
	db, a := newChemDB(t, fmt.Sprintf(":Storage file :Dir %s :Events on", t.TempDir()))
	b := db.NewSession()
	for _, step := range []struct {
		s *engine.Session
		q string
	}{
		{a, `BEGIN`},
		{a, `INSERT INTO compounds VALUES (6000, 'CCCCCCCCCC')`},
		{b, `UPDATE compounds SET mol = 'CCCCCCCCCCC' WHERE id = 0`},
		{a, `ROLLBACK`},
	} {
		if _, err := step.s.Exec(step.q); err != nil {
			t.Fatalf("%s: %v", step.q, err)
		}
	}
	b.SetForcedPath(engine.ForceDomainScan)
	rs, err := b.Query(`SELECT id FROM compounds WHERE ChemExact(mol, 'CCCCCCCCCCC')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int64() != 0 {
		t.Fatalf("committed update after another transaction's rollback = %v, want id 0", rs.Rows)
	}
}
