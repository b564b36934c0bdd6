package colls

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
)

func setup(t testing.TB) (*engine.DB, *engine.Session) {
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
	if _, err := s.Exec(`CREATE TABLE Employees(name VARCHAR2, hobbies VARRAY)`); err != nil {
		t.Fatal(err)
	}
	people := map[string][]string{
		"alice": {"Skiing", "Chess"},
		"bob":   {"Cooking"},
		"carol": {"Skiing", "Cooking", "Running"},
		"dave":  {},
	}
	for name, hs := range people {
		elems := make([]types.Value, len(hs))
		for i, h := range hs {
			elems[i] = types.Str(h)
		}
		if err := s.InsertRow("Employees", []types.Value{types.Str(name), types.Arr(elems...)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, s
}

func query(t testing.TB, s *engine.Session, hobby string) []string {
	t.Helper()
	rs, err := s.Query(`SELECT name FROM Employees WHERE CollContains(hobbies, ?) ORDER BY name`, types.Str(hobby))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range rs.Rows {
		out = append(out, r[0].Text())
	}
	return out
}

func TestFunctionalEvaluation(t *testing.T) {
	_, s := setup(t)
	got := query(t, s, "Skiing")
	if fmt.Sprint(got) != "[alice carol]" {
		t.Errorf("Skiing = %v", got)
	}
	if got := query(t, s, "Knitting"); len(got) != 0 {
		t.Errorf("Knitting = %v", got)
	}
}

func TestDomainIndexAgreesAndMaintains(t *testing.T) {
	_, s := setup(t)
	if _, err := s.Exec(`CREATE INDEX h_idx ON Employees(hobbies) INDEXTYPE IS CollIndexType`); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	if got := query(t, s, "Cooking"); fmt.Sprint(got) != "[bob carol]" {
		t.Errorf("Cooking = %v", got)
	}
	// Maintenance through programmatic insert.
	if err := s.InsertRow("Employees", []types.Value{
		types.Str("erin"), types.Arr(types.Str("Skiing")),
	}); err != nil {
		t.Fatal(err)
	}
	if got := query(t, s, "Skiing"); fmt.Sprint(got) != "[alice carol erin]" {
		t.Errorf("after insert = %v", got)
	}
	if _, err := s.Exec(`DELETE FROM Employees WHERE name = 'carol'`); err != nil {
		t.Fatal(err)
	}
	if got := query(t, s, "Skiing"); fmt.Sprint(got) != "[alice erin]" {
		t.Errorf("after delete = %v", got)
	}
	if got := query(t, s, "Running"); len(got) != 0 {
		t.Errorf("after delete, Running = %v", got)
	}
}

func TestLifecycleDDL(t *testing.T) {
	db, s := setup(t)
	if _, err := s.Exec(`CREATE INDEX h_idx ON Employees(hobbies) INDEXTYPE IS CollIndexType`); err != nil {
		t.Fatal(err)
	}
	// UPDATE maintains the index (delete + insert path).
	if err := s.InsertRow("Employees", []types.Value{types.Str("frank"), types.Arr(types.Str("Golf"))}); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	if got := query(t, s, "Golf"); len(got) != 1 {
		t.Fatalf("Golf = %v", got)
	}
	s.SetForcedPath(engine.ForceAuto)
	// TRUNCATE TABLE reaches ODCIIndexTruncate.
	if _, err := s.Exec(`TRUNCATE TABLE Employees`); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	if got := query(t, s, "Golf"); len(got) != 0 {
		t.Errorf("after truncate: %v", got)
	}
	s.SetForcedPath(engine.ForceAuto)
	// ALTER (empty PARAMETERS) and DROP INDEX reach the cartridge.
	if _, err := s.Exec(`ALTER INDEX h_idx PARAMETERS ('')`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`DROP INDEX h_idx`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`SELECT COUNT(*) FROM DR$H_IDX$E`); err == nil {
		t.Error("index data table survived drop")
	}
	_ = db
}

func TestScanRejectsBadPredicates(t *testing.T) {
	_, s := setup(t)
	if _, err := s.Exec(`CREATE INDEX h_idx ON Employees(hobbies) INDEXTYPE IS CollIndexType`); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	// Comparing the operator to something other than 1 is rejected by the
	// indextype (it only supports the truthy form).
	if _, err := s.Query(`SELECT name FROM Employees WHERE CollContains(hobbies, 'Chess') = 0`); err == nil {
		t.Error("non-truthy predicate accepted by domain scan")
	}
}
