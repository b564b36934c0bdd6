package extidx_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cartridge/chem"
	"repro/internal/cartridge/colls"
	"repro/internal/cartridge/spatial"
	"repro/internal/cartridge/text"
	"repro/internal/cartridge/vir"
	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/types"
)

// Contract suite: every shipped cartridge must satisfy the same ODCI
// life-cycle contract. For each cartridge the suite drives, through
// plain SQL, the full set of index routines —
//
//	Create   (CREATE INDEX over pre-existing rows)
//	Insert   (DML after the index exists)
//	Update   (UPDATE of an indexed column)
//	Delete   (DELETE of an indexed row)
//	Start/Fetch/Close (forced domain scans)
//	Truncate (TRUNCATE TABLE)
//	Drop     (DROP INDEX, DROP TABLE)
//
// — and after every mutation compares the forced domain-scan result of
// each probe query against the naive oracle: the same query evaluated
// with the operator's functional implementation over a full table scan.
// The two access paths must agree exactly; the scan state must not leak
// (workspace check at the end).

type contractQuery struct {
	name string
	sql  string
	args []types.Value
}

type contractStmt struct {
	sql  string
	args []types.Value
}

// contractMisuse is one misuse of an indextype through SQL: the
// statement must fail with an error containing want. An empty want
// marks a statement the cartridge accepts: colls, vir and the spatial
// indextypes define no PARAMETERS and take any string.
type contractMisuse struct {
	sql  string
	args []types.Value
	want string
}

type cartridgeContract struct {
	name      string
	install   func(db *engine.DB, s *engine.Session) error
	tableDDL  string
	tableName string
	indexDDL  string
	indexName string
	insertSQL string
	initial   [][]types.Value // rows present before CREATE INDEX
	later     [][]types.Value // rows inserted after CREATE INDEX
	mutations []contractStmt  // UPDATEs / DELETEs of indexed rows
	queries   []contractQuery
	misuse    []contractMisuse // run against the index built over initial
}

func contracts() []cartridgeContract {
	virGen := vir.NewGenerator(7, 6)
	sigs := make([]types.Value, 6)
	for i := range sigs {
		sigs[i] = virGen.Next().ToValue()
	}
	virWeights := types.Str("globalcolor=0.5, localcolor=0.2, texture=0.3, structure=0")

	return []cartridgeContract{
		{
			name:      "text",
			install:   func(db *engine.DB, s *engine.Session) error { return installThen(text.Register(db), s, text.Setup) },
			tableDDL:  `CREATE TABLE Docs(id NUMBER, body VARCHAR2)`,
			tableName: "Docs",
			indexDDL: `CREATE INDEX DocsCT ON Docs(body) INDEXTYPE IS TextIndexType
			           PARAMETERS (':Language English :Ignore the a an')`,
			indexName: "DocsCT",
			insertSQL: `INSERT INTO Docs VALUES (?, ?)`,
			initial: [][]types.Value{
				{types.Int(1), types.Str("Oracle and UNIX expert")},
				{types.Int(2), types.Str("java guru and oracle DBA")},
				{types.Int(3), types.Str("extensible indexing framework")},
				{types.Int(4), types.Null()},
			},
			later: [][]types.Value{
				{types.Int(5), types.Str("unix kernel hacker")},
				{types.Int(6), types.Str("oracle unix golf")},
			},
			mutations: []contractStmt{
				{sql: `UPDATE Docs SET body = 'golf instructor' WHERE id = 2`},
				{sql: `DELETE FROM Docs WHERE id = 1`},
			},
			queries: []contractQuery{
				{name: "and", sql: `SELECT id FROM Docs WHERE Contains(body, 'oracle AND unix')`},
				{name: "word", sql: `SELECT id FROM Docs WHERE Contains(body, 'golf')`},
				{name: "miss", sql: `SELECT id FROM Docs WHERE Contains(body, 'cobol')`},
			},
			misuse: []contractMisuse{
				{sql: `SELECT id FROM Docs WHERE Contains(body, 'oracle') = 0`, want: "ODCIIndexStart(DOCSCT): text: Contains predicates must compare the operator to 1"},
				{sql: `SELECT id FROM Docs WHERE Contains(body, 'oracle') > 0`, want: "ODCIIndexStart(DOCSCT): text: Contains predicates must compare the operator to 1"},
				{sql: `SELECT id FROM Docs WHERE Contains(body)`, want: "no binding of operator Contains for 1 arguments"},
				{sql: `SELECT id FROM Docs WHERE Contains(body, 'oracle AND')`, want: "ODCIIndexStart(DOCSCT): text: unexpected end of query"},
				{sql: `SELECT id FROM Docs WHERE Contains(body, 'NOT cobol')`, want: "ODCIIndexStart(DOCSCT): text: query must contain at least one positive term"},
				{sql: `ALTER INDEX DocsCT PARAMETERS (':Bogus x')`, want: "ODCIIndexAlter(DocsCT): text: bad PARAMETERS directive"},
				{sql: `CREATE INDEX DocsCT2 ON Docs(body) INDEXTYPE IS TextIndexType PARAMETERS (':Bogus x')`, want: "ODCIIndexCreate(DocsCT2): text: bad PARAMETERS directive"},
			},
		},
		{
			name:      "colls",
			install:   func(db *engine.DB, s *engine.Session) error { return installThen(colls.Register(db), s, colls.Setup) },
			tableDDL:  `CREATE TABLE Bags(id NUMBER, tags VARRAY)`,
			tableName: "Bags",
			indexDDL:  `CREATE INDEX BagsCT ON Bags(tags) INDEXTYPE IS CollIndexType`,
			indexName: "BagsCT",
			insertSQL: `INSERT INTO Bags VALUES (?, ?)`,
			initial: [][]types.Value{
				{types.Int(1), types.Arr(types.Str("skiing"), types.Str("chess"))},
				{types.Int(2), types.Arr(types.Str("cooking"))},
				{types.Int(3), types.Arr()},
				{types.Int(4), types.Null()},
			},
			later: [][]types.Value{
				{types.Int(5), types.Arr(types.Str("chess"), types.Str("golf"))},
			},
			mutations: []contractStmt{
				{sql: `UPDATE Bags SET tags = ? WHERE id = 2`,
					args: []types.Value{types.Arr(types.Str("skiing"), types.Str("sailing"))}},
				{sql: `DELETE FROM Bags WHERE id = 1`},
			},
			queries: []contractQuery{
				{name: "skiing", sql: `SELECT id FROM Bags WHERE CollContains(tags, 'skiing')`},
				{name: "chess", sql: `SELECT id FROM Bags WHERE CollContains(tags, 'chess')`},
				{name: "miss", sql: `SELECT id FROM Bags WHERE CollContains(tags, 'surfing')`},
			},
			misuse: []contractMisuse{
				{sql: `SELECT id FROM Bags WHERE CollContains(tags, 'chess') = 0`, want: "ODCIIndexStart(BAGSCT): colls: CollContains takes (collection, element) compared to 1"},
				{sql: `SELECT id FROM Bags WHERE CollContains(tags, 'a', 'b')`, want: "no binding of operator CollContains for 3 arguments"},
				{sql: `ALTER INDEX BagsCT PARAMETERS (':Bogus x')`}, // colls defines no PARAMETERS
			},
		},
		spatialContract("spatial-tile", spatial.IndexTypeName),
		spatialContract("spatial-rtree", spatial.RTreeTypeName),
		{
			name: "vir",
			install: func(db *engine.DB, s *engine.Session) error {
				_, err := vir.Register(db)
				return installThen(err, s, vir.Setup)
			},
			tableDDL:  fmt.Sprintf(`CREATE TABLE Images(id NUMBER, sig %s)`, vir.TypeName),
			tableName: "Images",
			indexDDL:  `CREATE INDEX ImgCT ON Images(sig) INDEXTYPE IS VIRIndexType`,
			indexName: "ImgCT",
			insertSQL: `INSERT INTO Images VALUES (?, ?)`,
			initial: [][]types.Value{
				{types.Int(1), sigs[0]},
				{types.Int(2), sigs[1]},
				{types.Int(3), sigs[2]},
			},
			later: [][]types.Value{
				{types.Int(4), sigs[3]},
				{types.Int(5), sigs[0]}, // duplicate of the probe image
			},
			mutations: []contractStmt{
				{sql: `UPDATE Images SET sig = ? WHERE id = 2`, args: []types.Value{sigs[4]}},
				{sql: `DELETE FROM Images WHERE id = 3`},
			},
			queries: []contractQuery{
				{name: "near", sql: `SELECT id FROM Images WHERE VIRSimilar(sig, ?, ?, 10)`,
					args: []types.Value{sigs[0], virWeights}},
				{name: "wide", sql: `SELECT id FROM Images WHERE VIRSimilar(sig, ?, ?, 1000)`,
					args: []types.Value{sigs[1], virWeights}},
			},
			misuse: []contractMisuse{
				{sql: `SELECT id FROM Images WHERE VIRSimilar(sig, ?, ?, 10) = 0`, args: []types.Value{sigs[0], virWeights},
					want: "ODCIIndexStart(IMGCT): vir: predicates must compare VIRSimilar to 1"},
				{sql: `SELECT id FROM Images WHERE VIRSimilar(sig, ?, ?)`, args: []types.Value{sigs[0], virWeights},
					want: "no binding of operator VIRSimilar for 3 arguments"},
				{sql: `SELECT id FROM Images WHERE VIRSimilar(sig, 'nope', ?, 10)`, args: []types.Value{virWeights},
					want: "ODCIIndexStart(IMGCT): vir: value nope is not a VIR_SIGNATURE"},
				{sql: `SELECT id FROM Images WHERE VIRSimilar(sig, ?, 'bogus=1', 10)`, args: []types.Value{sigs[0]},
					want: `ODCIIndexStart(IMGCT): vir: unknown weight "bogus"`},
				{sql: `ALTER INDEX ImgCT PARAMETERS (':Bogus x')`}, // vir defines no PARAMETERS
			},
		},
		{
			name: "chem",
			install: func(db *engine.DB, s *engine.Session) error {
				_, err := chem.Register(db)
				return installThen(err, s, chem.Setup)
			},
			tableDDL:  `CREATE TABLE Compounds(id NUMBER, mol VARCHAR2)`,
			tableName: "Compounds",
			indexDDL:  `CREATE INDEX MolCT ON Compounds(mol) INDEXTYPE IS ChemIndexType`,
			indexName: "MolCT",
			insertSQL: `INSERT INTO Compounds VALUES (?, ?)`,
			initial: [][]types.Value{
				{types.Int(1), types.Str("CC(=O)Nc1ccccc1")},
				{types.Int(2), types.Str("c1ccccc1")},
				{types.Int(3), types.Str("CCO")},
			},
			later: [][]types.Value{
				{types.Int(4), types.Str("CCCCCCCCCC")},
				{types.Int(5), types.Str("CC(=O)Oc1ccccc1C(=O)O")},
			},
			mutations: []contractStmt{
				{sql: `UPDATE Compounds SET mol = 'CCN' WHERE id = 3`},
				{sql: `DELETE FROM Compounds WHERE id = 2`},
			},
			queries: []contractQuery{
				{name: "exact", sql: `SELECT id FROM Compounds WHERE ChemExact(mol, 'O=C(C)Nc1ccccc1')`},
				{name: "substructure", sql: `SELECT id FROM Compounds WHERE ChemContains(mol, 'c1ccccc1')`},
				{name: "similar", sql: `SELECT id FROM Compounds WHERE ChemSimilar(mol, 'CC(=O)Nc1ccccc1', 0.5, 1)`},
				{name: "tautomer", sql: `SELECT id FROM Compounds WHERE ChemTautomer(mol, 'CC(O)=Nc1ccccc1')`},
			},
			misuse: []contractMisuse{
				{sql: `SELECT id FROM Compounds WHERE ChemContains(mol, 'c1ccccc1') = 0`, want: "ODCIIndexStart(MOLCT): chem: predicates must compare the operator to 1"},
				{sql: `SELECT id FROM Compounds WHERE ChemSimilar(mol, 'CCO')`, want: "no binding of operator ChemSimilar for 2 arguments"},
				{sql: `SELECT id FROM Compounds WHERE ChemContains(mol, 'C(((')`, want: `ODCIIndexStart(MOLCT): chem: unmatched '(' in "C((("`},
				{sql: `ALTER INDEX MolCT PARAMETERS (':Bogus x')`, want: `ODCIIndexAlter(MolCT): chem: unknown directive ":Bogus"`},
				{sql: `ALTER INDEX MolCT PARAMETERS (':Storage disk')`, want: `ODCIIndexAlter(MolCT): chem: :Storage wants lob|file, got "disk"`},
			},
		},
	}
}

func spatialContract(name, indexType string) cartridgeContract {
	geom := func(x1, y1, x2, y2 float64) types.Value {
		return spatial.NewRect(x1, y1, x2, y2).ToValue()
	}
	window := geom(0, 0, 10, 10)
	return cartridgeContract{
		name: name,
		install: func(db *engine.DB, s *engine.Session) error {
			return installThen(spatial.Register(db), s, spatial.Setup)
		},
		tableDDL:  fmt.Sprintf(`CREATE TABLE Sites(gid NUMBER, geometry %s)`, spatial.TypeName),
		tableName: "Sites",
		indexDDL:  fmt.Sprintf(`CREATE INDEX SitesCT ON Sites(geometry) INDEXTYPE IS %s`, indexType),
		indexName: "SitesCT",
		insertSQL: `INSERT INTO Sites VALUES (?, ?)`,
		initial: [][]types.Value{
			{types.Int(1), geom(1, 1, 3, 3)},         // inside the window
			{types.Int(2), geom(8, 8, 15, 15)},       // overlaps the edge
			{types.Int(3), geom(100, 100, 110, 110)}, // far away
			{types.Int(4), spatial.NewPoint(5, 5).ToValue()},
			{types.Int(5), types.Null()},
		},
		later: [][]types.Value{
			{types.Int(6), geom(2, 7, 4, 9)},
			{types.Int(7), geom(-20, -20, -10, -10)},
		},
		mutations: []contractStmt{
			{sql: `UPDATE Sites SET geometry = ? WHERE gid = 3`,
				args: []types.Value{geom(4, 4, 6, 6)}}, // moves into the window
			{sql: `DELETE FROM Sites WHERE gid = 1`},
		},
		queries: []contractQuery{
			{name: "relate", sql: `SELECT gid FROM Sites WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT')`,
				args: []types.Value{window}},
			{name: "inside", sql: `SELECT gid FROM Sites WHERE Sdo_Relate(geometry, ?, 'mask=INSIDE')`,
				args: []types.Value{window}},
			{name: "filter", sql: `SELECT gid FROM Sites WHERE Sdo_Filter(geometry, ?)`,
				args: []types.Value{window}},
		},
		misuse: []contractMisuse{
			{sql: `SELECT gid FROM Sites WHERE Sdo_Filter(geometry, ?) = 0`, args: []types.Value{window},
				want: "ODCIIndexStart(SITESCT): spatial: predicates must compare the operator to 1"},
			{sql: `SELECT gid FROM Sites WHERE Sdo_Relate(geometry, ?)`, args: []types.Value{window},
				want: "no binding of operator Sdo_Relate for 2 arguments"},
			{sql: `SELECT gid FROM Sites WHERE Sdo_Filter(geometry, 'nope')`,
				want: "ODCIIndexStart(SITESCT): spatial: value nope is not an SDO_GEOMETRY"},
			{sql: `SELECT gid FROM Sites WHERE Sdo_Relate(geometry, ?, 'mask=BOGUS')`, args: []types.Value{window},
				want: `ODCIIndexStart(SITESCT): spatial: unknown relate mask "mask=BOGUS"`},
			{sql: `ALTER INDEX SitesCT PARAMETERS (':Bogus x')`}, // both spatial indextypes define no PARAMETERS
		},
	}
}

// installThen chains a Register error with the cartridge's Setup DDL.
func installThen(regErr error, s *engine.Session, setup func(*engine.Session) error) error {
	if regErr != nil {
		return regErr
	}
	return setup(s)
}

// queryRows runs the query under the given forced access path and
// returns the result as a sorted row-string multiset.
func queryRows(t *testing.T, s *engine.Session, q contractQuery, path string) []string {
	t.Helper()
	s.SetForcedPath(path)
	defer s.SetForcedPath(engine.ForceAuto)
	rs, err := s.Query(q.sql, q.args...)
	if err != nil {
		t.Fatalf("query %s (path %s): %v", q.name, path, err)
	}
	out := make([]string, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		row := ""
		for i, v := range r {
			if i > 0 {
				row += "|"
			}
			row += v.String()
		}
		out = append(out, row)
	}
	sort.Strings(out)
	return out
}

// compareAll asserts domain-scan/full-scan agreement for every probe
// query at the current table state.
func compareAll(t *testing.T, s *engine.Session, c cartridgeContract, stage string) {
	t.Helper()
	for _, q := range c.queries {
		domain := queryRows(t, s, q, engine.ForceDomainScan)
		full := queryRows(t, s, q, engine.ForceFullScan)
		if fmt.Sprint(domain) != fmt.Sprint(full) {
			t.Errorf("%s/%s after %s: domain scan %v != full scan %v", c.name, q.name, stage, domain, full)
		}
	}
}

func insertRows(t *testing.T, s *engine.Session, c cartridgeContract, rows [][]types.Value) {
	t.Helper()
	for _, r := range rows {
		if _, err := s.Exec(c.insertSQL, r...); err != nil {
			t.Fatalf("%s: insert %v: %v", c.name, r, err)
		}
	}
}

// openContract opens a database with the cartridge installed and its
// base table created.
func openContract(t *testing.T, c cartridgeContract) (*engine.DB, *engine.Session) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := db.NewSession()
	if err := c.install(db, s); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := s.Exec(c.tableDDL); err != nil {
		t.Fatalf("create table: %v", err)
	}
	return db, s
}

func TestCartridgeContract(t *testing.T) {
	for _, c := range contracts() {
		t.Run(c.name, func(t *testing.T) {
			db, s := openContract(t, c)

			// ODCIIndexCreate must build the index over pre-existing rows.
			insertRows(t, s, c, c.initial)
			if _, err := s.Exec(c.indexDDL); err != nil {
				t.Fatalf("create index: %v", err)
			}
			compareAll(t, s, c, "create")

			// ODCIIndexInsert: maintenance of post-index DML.
			insertRows(t, s, c, c.later)
			compareAll(t, s, c, "insert")

			// ODCIIndexUpdate / ODCIIndexDelete.
			for i, m := range c.mutations {
				if _, err := s.Exec(m.sql, m.args...); err != nil {
					t.Fatalf("mutation %d (%s): %v", i, m.sql, err)
				}
				compareAll(t, s, c, fmt.Sprintf("mutation %d", i))
			}

			// ODCIIndexTruncate: both paths must agree on the empty table.
			if _, err := s.Exec(fmt.Sprintf(`TRUNCATE TABLE %s`, c.tableName)); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			compareAll(t, s, c, "truncate")
			for _, q := range c.queries {
				if got := queryRows(t, s, q, engine.ForceDomainScan); len(got) != 0 {
					t.Errorf("%s/%s after truncate: domain scan returned %v from empty table", c.name, q.name, got)
				}
			}

			// The truncated index must keep tracking new DML.
			insertRows(t, s, c, c.initial)
			compareAll(t, s, c, "reinsert")

			// ODCIIndexDrop: the index (and its backing storage) is gone;
			// a forced domain path falls back to the functional full scan,
			// so both paths must still agree on the live data.
			if _, err := s.Exec(fmt.Sprintf(`DROP INDEX %s`, c.indexName)); err != nil {
				t.Fatalf("drop index: %v", err)
			}
			compareAll(t, s, c, "drop-index")

			// Re-create on the live table, then DROP TABLE must cascade the
			// index away without error.
			if _, err := s.Exec(c.indexDDL); err != nil {
				t.Fatalf("re-create index: %v", err)
			}
			compareAll(t, s, c, "re-create")
			if _, err := s.Exec(fmt.Sprintf(`DROP TABLE %s`, c.tableName)); err != nil {
				t.Fatalf("drop table with domain index: %v", err)
			}

			// Scan contexts must not leak across all those forced scans.
			if n := db.Workspace().Live(); n != 0 {
				t.Errorf("%s: %d scan contexts leaked in workspace", c.name, n)
			}
		})
	}
}

// TestCartridgeMisuse: every shipped cartridge answers misuse of its
// operators through SQL with an error, never a panic: a predicate that
// compares the operator to a value other than 1, a wrong argument count
// or type, and malformed PARAMETERS. Callbacks run inside DML and scans,
// so a panic there would take the statement's locks and half-applied
// transaction with it. The scans are forced onto the domain index so
// that ODCIIndexStart sees each predicate; afterwards the index must
// still agree with the full scan.
func TestCartridgeMisuse(t *testing.T) {
	for _, c := range contracts() {
		t.Run(c.name, func(t *testing.T) {
			db, s := openContract(t, c)
			insertRows(t, s, c, c.initial)
			if _, err := s.Exec(c.indexDDL); err != nil {
				t.Fatalf("create index: %v", err)
			}
			s.SetForcedPath(engine.ForceDomainScan)
			for _, m := range c.misuse {
				var err error
				if strings.HasPrefix(m.sql, "SELECT") {
					_, err = s.Query(m.sql, m.args...)
				} else {
					_, err = s.Exec(m.sql, m.args...)
				}
				switch {
				case m.want == "" && err != nil:
					t.Errorf("%s: %v, want it accepted", m.sql, err)
				case m.want != "" && (err == nil || !strings.Contains(err.Error(), m.want)):
					t.Errorf("%s: got %v, want an error containing %q", m.sql, err, m.want)
				}
			}
			compareAll(t, s, c, "misuse")
			if n := db.Workspace().Live(); n != 0 {
				t.Errorf("%s: %d scan contexts leaked in workspace", c.name, n)
			}
		})
	}
}

// badAncMethods is a deliberately broken cartridge: its Fetch returns an
// Ancillary slice shorter than RIDs, violating the fetch contract. The
// engine must reject the batch with a contract error rather than
// silently misaligning ancillary values against rows.
type badAncMethods struct{ rids []int64 }

func (m *badAncMethods) Create(s extidx.Server, info extidx.IndexInfo) error {
	rows, err := s.Query(fmt.Sprintf(`SELECT ROWID FROM %s`, info.TableName))
	if err != nil {
		return err
	}
	for _, r := range rows {
		m.rids = append(m.rids, r[0].Int64())
	}
	return nil
}

func (m *badAncMethods) Alter(s extidx.Server, info extidx.IndexInfo, newParams string) error {
	return nil
}
func (m *badAncMethods) Truncate(s extidx.Server, info extidx.IndexInfo) error {
	m.rids = nil
	return nil
}
func (m *badAncMethods) Drop(s extidx.Server, info extidx.IndexInfo) error { return nil }
func (m *badAncMethods) Insert(s extidx.Server, info extidx.IndexInfo, rid int64, newVal types.Value) error {
	m.rids = append(m.rids, rid)
	return nil
}
func (m *badAncMethods) Delete(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal types.Value) error {
	return nil
}
func (m *badAncMethods) Update(s extidx.Server, info extidx.IndexInfo, rid int64, oldVal, newVal types.Value) error {
	return nil
}

func (m *badAncMethods) Start(s extidx.Server, info extidx.IndexInfo, call extidx.OperatorCall) (extidx.ScanState, error) {
	return extidx.StateValue{V: nil}, nil
}

func (m *badAncMethods) Fetch(s extidx.Server, st extidx.ScanState, maxRows int) (extidx.FetchResult, extidx.ScanState, error) {
	// One ancillary value short of the RID count: the contract violation
	// under test.
	return extidx.FetchResult{
		RIDs:      m.rids,
		Ancillary: make([]types.Value, len(m.rids)-1),
		Done:      true,
	}, st, nil
}

func (m *badAncMethods) Close(s extidx.Server, st extidx.ScanState) error { return nil }

func badEqFn(args []types.Value) (types.Value, error) { return types.Num(1), nil }

// TestFetchContractViolation drives a domain scan through a cartridge
// whose Fetch breaks the len(Ancillary) == len(RIDs) invariant and
// asserts the engine surfaces a contract error instead of bad rows.
func TestFetchContractViolation(t *testing.T) {
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	reg := db.Registry()
	if err := reg.RegisterFunction("BadEqFn", badEqFn); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterMethods("BadAncMethods", &badAncMethods{}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	ddl := []string{
		`CREATE OPERATOR BadEq BINDING (NUMBER, NUMBER) RETURN NUMBER USING BadEqFn`,
		`CREATE INDEXTYPE BadIndexType FOR BadEq(NUMBER, NUMBER) USING BadAncMethods`,
		`CREATE TABLE BadT(id NUMBER, val NUMBER)`,
		`INSERT INTO BadT VALUES (1, 1)`,
		`INSERT INTO BadT VALUES (2, 1)`,
		`INSERT INTO BadT VALUES (3, 1)`,
		`CREATE INDEX BadIdx ON BadT(val) INDEXTYPE IS BadIndexType`,
	}
	for _, stmt := range ddl {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	_, err = s.Query(`SELECT id FROM BadT WHERE BadEq(val, 1)`)
	if err == nil {
		t.Fatal("domain scan over contract-breaking cartridge succeeded; want fetch contract violation")
	}
	if !strings.Contains(err.Error(), "fetch contract violation") {
		t.Fatalf("error %q does not mention the fetch contract violation", err)
	}
}
