package spatial

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/extidx"
	"repro/internal/storage"
	"repro/internal/types"
)

func TestGeometryCodecs(t *testing.T) {
	poly, err := NewPolygon(Point{1, 1}, Point{5, 1}, Point{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Geometry{
		NewPoint(3.5, -2),
		NewRect(0, 0, 10, 5),
		poly,
	} {
		v := g.ToValue()
		back, err := FromValue(v)
		if err != nil {
			t.Fatalf("FromValue: %v", err)
		}
		if back.Kind != g.Kind || len(back.Pts) != len(g.Pts) {
			t.Errorf("value round trip: %+v vs %+v", back, g)
		}
		dec, err := Decode(g.Encode())
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if dec.Kind != g.Kind || len(dec.Pts) != len(g.Pts) || dec.Pts[0] != g.Pts[0] {
			t.Errorf("string round trip: %+v vs %+v", dec, g)
		}
	}
	// Invalid inputs.
	if _, err := FromValue(types.Num(1)); err == nil {
		t.Error("non-object accepted")
	}
	if _, err := Decode("1 2"); err == nil {
		t.Error("truncated string accepted")
	}
	if _, err := NewPolygon(Point{0, 0}, Point{1, 1}); err == nil {
		t.Error("2-vertex polygon accepted")
	}
	if _, err := FromValue(types.Obj(TypeName, types.Int(2), types.Arr(types.Num(1)))); err == nil {
		t.Error("odd coordinate count accepted")
	}
}

func TestRelateMasks(t *testing.T) {
	big := NewRect(0, 0, 10, 10)
	small := NewRect(2, 2, 4, 4)
	partial := NewRect(8, 8, 15, 15)
	far := NewRect(100, 100, 110, 110)
	tri, _ := NewPolygon(Point{1, 1}, Point{9, 1}, Point{5, 9})

	cases := []struct {
		a, b Geometry
		m    Mask
		want bool
	}{
		{small, big, MaskInside, true},
		{big, small, MaskInside, false},
		{big, small, MaskContains, true},
		{partial, big, MaskOverlaps, true},
		{small, big, MaskOverlaps, false}, // containment is not overlap
		{partial, big, MaskAnyInteract, true},
		{far, big, MaskAnyInteract, false},
		{far, big, MaskDisjoint, true},
		{tri, big, MaskInside, true},
		{NewPoint(3, 3), big, MaskInside, true},
		{NewPoint(3, 3), tri, MaskAnyInteract, true},
		{NewPoint(0.5, 8), tri, MaskAnyInteract, false},
		{NewRect(10, 0, 20, 10), big, MaskAnyInteract, true}, // edge touch
	}
	for i, c := range cases {
		if got := Relate(c.a, c.b, c.m); got != c.want {
			t.Errorf("case %d: Relate(..., %v) = %v, want %v", i, c.m, got, c.want)
		}
	}
	if _, err := ParseMask("mask=OVERLAPS"); err != nil {
		t.Error("mask= prefix rejected")
	}
	if _, err := ParseMask("SIDEWAYS"); err == nil {
		t.Error("bogus mask accepted")
	}
}

func TestCoverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randRectGeom := func() Geometry {
		x, y := rng.Float64()*900, rng.Float64()*900
		return NewRect(x, y, x+rng.Float64()*100, y+rng.Float64()*100)
	}
	for i := 0; i < 300; i++ {
		g := randRectGeom()
		ranges := Cover(g)
		if len(ranges) == 0 {
			t.Fatal("empty cover")
		}
		total := int64(0)
		maxTile := int64(1) << (2 * TileLevel)
		for j, r := range ranges {
			if r.Lo > r.Hi || r.Lo < 0 || r.Hi >= maxTile {
				t.Fatalf("bad range %+v", r)
			}
			if j > 0 && ranges[j].Lo <= ranges[j-1].Hi {
				t.Fatalf("ranges overlap or unsorted: %+v", ranges)
			}
			total += r.Hi - r.Lo + 1
		}
		// No false negatives: intersecting bboxes must share tiles.
		h := randRectGeom()
		if g.BBox().Intersects(h.BBox()) && !RangesIntersect(Cover(g), Cover(h)) {
			t.Fatalf("primary filter false negative for %+v vs %+v", g, h)
		}
	}
}

func TestQuickMortonRangeNesting(t *testing.T) {
	// Quadtree-aligned ranges must be nested or disjoint.
	prop := func(x1, y1, x2, y2, x3, y3, x4, y4 uint16) bool {
		g := NewRect(float64(x1%1000), float64(y1%1000), float64(x2%1000), float64(y2%1000))
		h := NewRect(float64(x3%1000), float64(y3%1000), float64(x4%1000), float64(y4%1000))
		for _, ra := range Cover(g) {
			for _, rb := range Cover(h) {
				overlap := ra.Lo <= rb.Hi && rb.Lo <= ra.Hi
				nested := (ra.Lo >= rb.Lo && ra.Hi <= rb.Hi) || (rb.Lo >= ra.Lo && rb.Hi <= ra.Hi)
				if overlap && !nested {
					// Merged sibling runs may partially overlap only via
					// adjacency merging; check containment of one endpoint
					// instead.
					if !(ra.Lo >= rb.Lo && ra.Lo <= rb.Hi) && !(rb.Lo >= ra.Lo && rb.Lo <= ra.Hi) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// End-to-end cartridge tests

func newSpatialDB(t testing.TB) (*engine.DB, *engine.Session) {
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
	return db, s
}

// loadLayers creates roads/parks tables with deterministic rectangles.
func loadLayers(t testing.TB, s *engine.Session, n int) {
	t.Helper()
	for _, tbl := range []string{"roads", "parks"} {
		if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE %s(gid NUMBER, geometry %s)`, tbl, TypeName)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*980, rng.Float64()*980
		road := NewRect(x, y, x+rng.Float64()*40, y+2)
		if _, err := s.Exec(`INSERT INTO roads VALUES (?, ?)`, types.Int(int64(i)), road.ToValue()); err != nil {
			t.Fatal(err)
		}
		x, y = rng.Float64()*980, rng.Float64()*980
		park := NewRect(x, y, x+rng.Float64()*30, y+rng.Float64()*30)
		if _, err := s.Exec(`INSERT INTO parks VALUES (?, ?)`, types.Int(int64(i)), park.ToValue()); err != nil {
			t.Fatal(err)
		}
	}
}

func pairKey(r []types.Value) string { return fmt.Sprintf("%d/%d", r[0].Int64(), r[1].Int64()) }

func sortedPairs(rows [][]types.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = pairKey(r)
	}
	sort.Strings(out)
	return out
}

func TestWindowQueryViaDomainIndex(t *testing.T) {
	_, s := newSpatialDB(t)
	loadLayers(t, s, 150)
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS %s`, IndexTypeName)); err != nil {
		t.Fatal(err)
	}
	window := NewRect(100, 100, 300, 300)

	s.SetForcedPath(engine.ForceDomainScan)
	idx, err := s.Query(`SELECT gid FROM parks WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT') ORDER BY gid`, window.ToValue())
	if err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceFullScan)
	full, err := s.Query(`SELECT gid FROM parks WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT') ORDER BY gid`, window.ToValue())
	s.SetForcedPath(engine.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Rows) == 0 {
		t.Fatal("window query found nothing; data generator broken")
	}
	if len(idx.Rows) != len(full.Rows) {
		t.Fatalf("domain %d rows vs functional %d rows", len(idx.Rows), len(full.Rows))
	}
	for i := range idx.Rows {
		if idx.Rows[i][0].Int64() != full.Rows[i][0].Int64() {
			t.Fatalf("row %d differs", i)
		}
	}
	// Sdo_Filter (primary filter only) is a superset of ANYINTERACT.
	s.SetForcedPath(engine.ForceDomainScan)
	filt, err := s.Query(`SELECT gid FROM parks WHERE Sdo_Filter(geometry, ?)`, window.ToValue())
	s.SetForcedPath(engine.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(filt.Rows) < len(idx.Rows) {
		t.Errorf("primary filter (%d) smaller than exact result (%d)", len(filt.Rows), len(idx.Rows))
	}
}

func TestSpatialJoinThreeWays(t *testing.T) {
	_, s := newSpatialDB(t)
	loadLayers(t, s, 120)
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS %s`, IndexTypeName)); err != nil {
		t.Fatal(err)
	}

	// 1. The 8i formulation: operator as join predicate, inner domain
	// index drives the nested loop.
	joinSQL := `SELECT r.gid, p.gid FROM roads r, parks p WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')`
	modern, err := s.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Functional evaluation (no index use).
	s.SetForcedPath(engine.ForceFullScan)
	functional, err := s.Query(joinSQL)
	s.SetForcedPath(engine.ForceAuto)
	if err != nil {
		t.Fatal(err)
	}

	// 3. The pre-8i explicit formulation over _SDOINDEX tables.
	if _, err := BuildLegacyIndex(s, "roads", "gid", "geometry"); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildLegacyIndex(s, "parks", "gid", "geometry"); err != nil {
		t.Fatal(err)
	}
	legacy, err := LegacyOverlapQuery(s, "roads_SDOINDEX", "parks_SDOINDEX", "ANYINTERACT")
	if err != nil {
		t.Fatal(err)
	}

	a, b, c := sortedPairs(modern.Rows), sortedPairs(functional.Rows), sortedPairs(legacy)
	if len(a) == 0 {
		t.Fatal("no overlapping pairs; generator broken")
	}
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Errorf("modern (%d pairs) != functional (%d pairs)", len(a), len(b))
	}
	if strings.Join(a, ";") != strings.Join(c, ";") {
		t.Errorf("modern (%d pairs) != legacy (%d pairs)", len(a), len(c))
	}

	// The modern plan must actually use the domain index for the join.
	ex, err := s.Query(`EXPLAIN PLAN FOR ` + joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for _, r := range ex.Rows {
		plan = append(plan, r[0].Text())
	}
	if !strings.Contains(strings.Join(plan, "|"), "DOMAIN INDEX PARKS_SIDX") {
		t.Errorf("join plan = %v", plan)
	}
}

func TestSpatialMaintenance(t *testing.T) {
	_, s := newSpatialDB(t)
	loadLayers(t, s, 30)
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS %s`, IndexTypeName)); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	window := NewRect(500, 500, 510, 510)
	count := func() int {
		rs, err := s.Query(`SELECT gid FROM parks WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT')`, window.ToValue())
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.Rows)
	}
	before := count()
	if _, err := s.Exec(`INSERT INTO parks VALUES (999, ?)`, NewRect(505, 505, 506, 506).ToValue()); err != nil {
		t.Fatal(err)
	}
	if count() != before+1 {
		t.Error("insert not reflected in spatial index")
	}
	if _, err := s.Exec(`UPDATE parks SET geometry = ? WHERE gid = 999`, NewRect(0, 0, 1, 1).ToValue()); err != nil {
		t.Fatal(err)
	}
	if count() != before {
		t.Error("update not reflected in spatial index")
	}
	if _, err := s.Exec(`DELETE FROM parks WHERE gid = 999`); err != nil {
		t.Fatal(err)
	}
	if count() != before {
		t.Error("delete corrupted spatial index")
	}
}

func TestRTreeIndexTypeAgreesWithTiles(t *testing.T) {
	_, s := newSpatialDB(t)
	loadLayers(t, s, 100)
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX roads_rt ON roads(geometry) INDEXTYPE IS %s`, RTreeTypeName)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS %s`, IndexTypeName)); err != nil {
		t.Fatal(err)
	}
	window := NewRect(200, 200, 420, 420)
	s.SetForcedPath(engine.ForceDomainScan)
	defer s.SetForcedPath(engine.ForceAuto)
	viaRTree, err := s.Query(`SELECT gid FROM roads WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT') ORDER BY gid`, window.ToValue())
	if err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceFullScan)
	functional, err := s.Query(`SELECT gid FROM roads WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT') ORDER BY gid`, window.ToValue())
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRTree.Rows) != len(functional.Rows) {
		t.Fatalf("rtree %d vs functional %d", len(viaRTree.Rows), len(functional.Rows))
	}
	// Maintenance hits the external tree too.
	s.SetForcedPath(engine.ForceAuto)
	if _, err := s.Exec(`INSERT INTO roads VALUES (777, ?)`, NewRect(300, 300, 301, 301).ToValue()); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	after, err := s.Query(`SELECT gid FROM roads WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT') ORDER BY gid`, window.ToValue())
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(viaRTree.Rows)+1 {
		t.Error("external r-tree missed the insert")
	}
}

func TestExternalIndexRollbackWithAndWithoutEvents(t *testing.T) {
	// Without database events: a rollback reverts the base table but NOT
	// the external index — the limitation §5 describes.
	_, s := newSpatialDB(t)
	if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE sites(gid NUMBER, geometry %s)`, TypeName)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX sites_rt ON sites(geometry) INDEXTYPE IS %s`, RTreeTypeName)); err != nil {
		t.Fatal(err)
	}
	window := NewRect(0, 0, 50, 50)
	countIdx := func() int {
		s.SetForcedPath(engine.ForceDomainScan)
		defer s.SetForcedPath(engine.ForceAuto)
		rs, err := s.Query(`SELECT gid FROM sites WHERE Sdo_Filter(geometry, ?)`, window.ToValue())
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.Rows)
	}
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO sites VALUES (1, ?)`, NewRect(10, 10, 20, 20).ToValue()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	rs, _ := s.Query(`SELECT COUNT(*) FROM sites`)
	if rs.Rows[0][0].Int64() != 0 {
		t.Fatal("base table not rolled back")
	}
	// The external tree still thinks the row exists: scanning it yields a
	// RID that no longer resolves — the inconsistency the paper warns
	// about. (The engine surfaces it as a fetch error.)
	s.SetForcedPath(engine.ForceDomainScan)
	if _, err := s.Query(`SELECT gid FROM sites WHERE Sdo_Filter(geometry, ?)`, window.ToValue()); err == nil {
		t.Error("external index silently consistent without events; expected stale entry")
	}
	s.SetForcedPath(engine.ForceAuto)

	// With ':Events on', rollback handlers restore consistency.
	_, s2 := newSpatialDB(t)
	if _, err := s2.Exec(fmt.Sprintf(`CREATE TABLE sites(gid NUMBER, geometry %s)`, TypeName)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec(fmt.Sprintf(
		`CREATE INDEX sites_rt ON sites(geometry) INDEXTYPE IS %s PARAMETERS (':Events on')`, RTreeTypeName)); err != nil {
		t.Fatal(err)
	}
	s = s2
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO sites VALUES (1, ?)`, NewRect(10, 10, 20, 20).ToValue()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if n := countIdx(); n != 0 {
		t.Errorf("with events, external index still has %d stale entries", n)
	}
}

func TestSpatialLifecycleDDL(t *testing.T) {
	_, s := newSpatialDB(t)
	loadLayers(t, s, 25)
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX parks_sidx ON parks(geometry) INDEXTYPE IS %s`, IndexTypeName)); err != nil {
		t.Fatal(err)
	}
	// TRUNCATE TABLE reaches ODCIIndexTruncate: index tables empty.
	if _, err := s.Exec(`TRUNCATE TABLE parks`); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Query(`SELECT COUNT(*) FROM DR$PARKS_SIDX$T`)
	if err != nil || rs.Rows[0][0].Int64() != 0 {
		t.Errorf("tile table after truncate: %v %v", rs, err)
	}
	// ALTER INDEX and DROP INDEX.
	if _, err := s.Exec(`ALTER INDEX parks_sidx PARAMETERS ('')`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`DROP INDEX parks_sidx`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`SELECT COUNT(*) FROM DR$PARKS_SIDX$T`); err == nil {
		t.Error("tile table survived drop")
	}
}

func TestSdoFilterFunctional(t *testing.T) {
	// The functional Sdo_Filter implementation (primary filter only) is a
	// superset of exact interaction.
	a := NewRect(10, 10, 20, 20)
	b := NewRect(15, 15, 25, 25)
	far := NewRect(800, 800, 810, 810)
	v, err := funcFilter([]types.Value{a.ToValue(), b.ToValue()})
	if err != nil || v.Float() != 1 {
		t.Errorf("overlapping filter = %v, %v", v, err)
	}
	v, err = funcFilter([]types.Value{a.ToValue(), far.ToValue()})
	if err != nil || v.Float() != 0 {
		t.Errorf("distant filter = %v, %v", v, err)
	}
	if _, err := funcFilter([]types.Value{a.ToValue()}); err == nil {
		t.Error("bad arity accepted")
	}
	// Relate functional errors.
	if _, err := funcRelate([]types.Value{a.ToValue(), b.ToValue(), types.Str("BOGUS")}); err == nil {
		t.Error("bogus mask accepted")
	}
	if v, _ := funcRelate([]types.Value{types.Null(), b.ToValue(), types.Str("OVERLAPS")}); v.Float() != 0 {
		t.Error("NULL geometry should relate as 0")
	}
}

func TestRTreeTruncateAndDrop(t *testing.T) {
	_, s := newSpatialDB(t)
	loadLayers(t, s, 20)
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX roads_rt ON roads(geometry) INDEXTYPE IS %s`, RTreeTypeName)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`TRUNCATE TABLE roads`); err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	rs, err := s.Query(`SELECT gid FROM roads WHERE Sdo_Filter(geometry, ?)`, NewRect(0, 0, 1024, 1024).ToValue())
	if err != nil || len(rs.Rows) != 0 {
		t.Errorf("external tree after truncate: %v %v", rs, err)
	}
	s.SetForcedPath(engine.ForceAuto)
	if _, err := s.Exec(`DROP INDEX roads_rt`); err != nil {
		t.Fatal(err)
	}
	// Recreating under the same name works (the external slot was freed).
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX roads_rt ON roads(geometry) INDEXTYPE IS %s`, RTreeTypeName)); err != nil {
		t.Fatal(err)
	}
}

// TestRTreeRollbackHooksBesideWriter: one session keeps rolling back
// inserts into an externally indexed table with ':Events on' while
// another inserts into it. The rollback handlers change the in-process
// R-tree like the maintenance callbacks do, so the two must not run at
// once (run under -race), and afterwards the tree holds exactly the
// committed rows.
func TestRTreeRollbackHooksBesideWriter(t *testing.T) {
	db, s := newSpatialDB(t)
	if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE sites(gid NUMBER, geometry %s)`, TypeName)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX sites_rt ON sites(geometry) INDEXTYPE IS %s PARAMETERS (':Events on')`, RTreeTypeName)); err != nil {
		t.Fatal(err)
	}
	const n = 100
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		a := db.NewSession()
		for i := 0; i < n; i++ {
			if err := a.Begin(); err != nil {
				errc <- err
				return
			}
			_, err := a.Exec(`INSERT INTO sites VALUES (?, ?)`, types.Int(int64(i)), NewRect(float64(i), 0, float64(i)+1, 1).ToValue())
			if err != nil && !errors.Is(err, storage.ErrWriteConflict) {
				errc <- err
				return
			}
			if err := a.Rollback(); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		b := db.NewSession()
		for i := 0; i < n; i++ {
			if _, err := b.Exec(`INSERT INTO sites VALUES (?, ?)`, types.Int(int64(1000+i)), NewRect(float64(i), 5, float64(i)+1, 6).ToValue()); err != nil && !errors.Is(err, storage.ErrWriteConflict) {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	window := NewRect(-1, -1, n+1, 7).ToValue()
	s.SetForcedPath(engine.ForceFullScan)
	full, err := s.Query(`SELECT gid FROM sites WHERE Sdo_Filter(geometry, ?)`, window)
	if err != nil {
		t.Fatal(err)
	}
	s.SetForcedPath(engine.ForceDomainScan)
	dom, err := s.Query(`SELECT gid FROM sites WHERE Sdo_Filter(geometry, ?)`, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(dom.Rows) != len(full.Rows) {
		t.Fatalf("R-tree finds %d rows, the table holds %d", len(dom.Rows), len(full.Rows))
	}
}

// eventServer is the part of extidx.Server the R-tree's maintenance
// callbacks use: Create's base-table query (an empty table here) and the
// rollback-handler registration, which it records instead of running.
type eventServer struct {
	extidx.Server
	rollback []func()
}

func (s *eventServer) Query(string, ...types.Value) ([][]types.Value, error) { return nil, nil }
func (s *eventServer) OnTxnRollback(fn func())                               { s.rollback = append(s.rollback, fn) }

// TestRTreeScanBesideRollback: ODCIIndexStart searches an external
// R-tree while ':Events on' rollback handlers take inserted rows back
// out of it. The engine runs those handlers when an explicit transaction
// rolls back, inside the mutation window, which readers never take, and
// with no table lock, so only the index's own lock keeps them apart from
// a scan (run under -race). The callbacks are driven directly, as the
// engine calls them: through SQL the same probe also reports the
// engine's own rollback races on the table's heap and row count, which
// are another matter.
func TestRTreeScanBesideRollback(t *testing.T) {
	m := NewRTreeMethods()
	srv := &eventServer{}
	info := extidx.IndexInfo{IndexName: "SITES_RT", TableName: "SITES", ColumnName: "GEOMETRY", Params: ":Events on"}
	if err := m.Create(srv, info); err != nil {
		t.Fatal(err)
	}
	const committed, rolledBack = 10, 200
	for i := 0; i < committed+rolledBack; i++ {
		if i == committed {
			srv.rollback = nil // the first rows' transactions committed
		}
		g := NewRect(float64(i%20), 0, float64(i%20)+1, 1).ToValue()
		if err := m.Insert(srv, info, int64(i), g); err != nil {
			t.Fatal(err)
		}
	}
	call := extidx.OperatorCall{Name: OpFilter, Args: []types.Value{NewRect(-1, -1, 21, 2).ToValue()}, Relop: extidx.CmpEQ, Bound: types.Num(1)}
	scan := func() (int, error) {
		st, err := m.Start(srv, info, call)
		if err != nil {
			return 0, err
		}
		res, _, err := m.Fetch(srv, st, 0)
		if err != nil {
			return 0, err
		}
		return len(res.RIDs), m.Close(srv, st)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, undo := range srv.rollback {
			undo()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if _, err := scan(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, err := scan(); err != nil || n != committed {
		t.Fatalf("R-tree finds %d rows after the rollbacks (err %v), want the %d committed", n, err, committed)
	}
}
