package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	extdb "repro"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wordgen"
)

// domainSearch is the read-only, fits-in-cache workload over the text
// and spatial cartridges: the paper's headline path.
type domainSearch struct {
	seed   int64
	corpus []string
	rects  []rect
	docs   *docTable
}

// rect is an axis-parallel rectangle of the spatial data set.
type rect struct{ minX, minY, maxX, maxY float64 }

func (r rect) intersects(o rect) bool {
	return r.minX <= o.maxX && o.minX <= r.maxX && r.minY <= o.maxY && o.minY <= r.maxY
}

func (r rect) value() extdb.Value {
	return extdb.SpatialRect(r.minX, r.minY, r.maxX, r.maxY).ToValue()
}

const (
	spatialExtent = 1024.0 // the tessellated domain of the tile index
	// windowSide makes a query window cover 0.5% of the extent.
	windowSide      = 72.4
	spatialClusters = 20

	sqlSpatial = `SELECT gid FROM sites WHERE Sdo_Relate(geometry, ?, 'mask=ANYINTERACT')`
)

func newDomainSearch(seed int64, scale float64) *domainSearch {
	w := &domainSearch{seed: seed}
	w.corpus = wordgen.New(seed, textVocab).Corpus(scaled(2000, scale), docTokens)
	w.docs = newDocTable(w.corpus)
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	centres := make([][2]float64, spatialClusters)
	for i := range centres {
		centres[i] = [2]float64{100 + rng.Float64()*(spatialExtent-200), 100 + rng.Float64()*(spatialExtent-200)}
	}
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 1), spatialExtent-20) }
	for i := 0; i < scaled(1000, scale); i++ {
		c := centres[rng.Intn(len(centres))]
		x, y := clamp(c[0]+rng.NormFloat64()*40), clamp(c[1]+rng.NormFloat64()*40)
		w.rects = append(w.rects, rect{x, y, x + 2 + rng.Float64()*10, y + 2 + rng.Float64()*10})
	}
	return w
}

func (w *domainSearch) options(path string) extdb.Options { return extdb.Options{Path: path} }

func (w *domainSearch) install(db *extdb.DB) error {
	s := db.NewSession()
	if err := extdb.InstallTextCartridge(db, s); err != nil {
		return err
	}
	return extdb.InstallSpatialCartridge(db, s)
}

func (w *domainSearch) setup(db *extdb.DB) (setupStats, error) {
	st := setupStats{textDocs: len(w.corpus), spatialGeoms: len(w.rects)}
	s := db.NewSession()
	for _, ddl := range []string{
		`CREATE TABLE docs(id NUMBER, body VARCHAR2)`,
		`CREATE TABLE sites(gid NUMBER, geometry SDO_GEOMETRY)`,
	} {
		if _, err := s.Exec(ddl); err != nil {
			return st, err
		}
	}
	if err := loadDocs(s, w.corpus); err != nil {
		return st, err
	}
	err := loadRows(s, len(w.rects), func(i int) (string, []extdb.Value) {
		return `INSERT INTO sites VALUES (?, ?)`, []extdb.Value{extdb.Int(int64(i)), w.rects[i].value()}
	})
	if err != nil {
		return st, err
	}
	if st.textBuild, err = timedExec(s, `CREATE INDEX doc_text ON docs(body) INDEXTYPE IS TextIndexType`); err != nil {
		return st, err
	}
	if st.spatialBuild, err = timedExec(s, `CREATE INDEX sites_sidx ON sites(geometry) INDEXTYPE IS SpatialIndexType`); err != nil {
		return st, err
	}
	st.indexBuild = st.textBuild + st.spatialBuild
	return st, nil
}

// searchOp is one generated domain_search operation: a text query or a
// spatial window.
type searchOp struct {
	text   textQuery
	window rect // spatial when text.terms is empty
	sample bool
}

func (o searchOp) String() string {
	if o.text.terms != nil {
		return o.text.String()
	}
	return fmt.Sprintf("spatial %.3f,%.3f sample=%t", o.window.minX, o.window.minY, o.sample)
}

// genSearchOp draws from the mix: 50% rare term, 20% two-term AND with
// Score, 10% moderate term (together the 5:2:1 text mix), 20% spatial.
func genSearchOp(rng *rand.Rand) searchOp {
	if rng.Intn(5) == 0 {
		x, y := rng.Float64()*(spatialExtent-windowSide), rng.Float64()*(spatialExtent-windowSide)
		return searchOp{window: rect{x, y, x + windowSide, y + windowSide}, sample: rng.Intn(sampleEvery) == 0}
	}
	return searchOp{text: genTextQuery(rng)}
}

type searchClient struct {
	w   *domainSearch
	c   conn
	rng *rand.Rand
}

func (w *domainSearch) clients(db *extdb.DB) []client {
	var out []client
	for i := 0; i < clientsPerRun; i++ {
		out = append(out, &searchClient{w: w, c: conn{s: db.NewSession()}, rng: clientRNG(w.seed, i)})
	}
	return out
}

// writers is the write phase: the mixed_maintain DML mix on the docs
// table, so the cost of maintaining the index the window searched is
// reported by the same run.
func (w *domainSearch) writers(db *extdb.DB) []client {
	return []client{newDocWriter(w.docs, db, w.seed)}
}

func (sc *searchClient) step(seq int, tr *clientTrace) opResult {
	op := genSearchOp(sc.rng)
	if op.text.terms != nil {
		// No writer runs beside the window, so the model is read unlocked.
		return runTextQuery(&sc.c, seq, tr, op.text, sc.w.docs.model.expect(op.text), nil)
	}
	res := opResult{kind: kSpatial}
	sc.c.startOp(seq, tr, kSpatial)
	start := time.Now()
	rs, err := sc.c.query(sqlSpatial, op.window.value())
	res.lat = time.Since(start)
	sc.c.endOp()
	if err != nil {
		res.err = err
		return res
	}
	res.checkFail = sc.w.checkSpatial(op, rs)
	return res
}

// runTextQuery times one text query and checks its reply.
func runTextQuery(c *conn, seq int, tr *clientTrace, q textQuery, want map[int]float64, skip func() map[int]bool) opResult {
	res := opResult{kind: q.kind}
	text, arg := q.sql()
	c.startOp(seq, tr, q.kind)
	start := time.Now()
	rs, err := c.query(text, arg)
	res.lat = time.Since(start)
	c.endOp()
	if err != nil {
		res.err = err
		return res
	}
	var skipped map[int]bool
	if skip != nil {
		skipped = skip()
	}
	res.checkFail = checkTextReply(q, rs, want, skipped)
	return res
}

// checkSpatial compares a window reply with brute-force rectangle
// intersection: the count always, the ids on sampled operations.
func (w *domainSearch) checkSpatial(op searchOp, rs *extdb.ResultSet) string {
	want := map[int]bool{}
	for i, r := range w.rects {
		if r.intersects(op.window) {
			want[i] = true
		}
	}
	if len(rs.Rows) != len(want) {
		return fmt.Sprintf("window returned %d rows, brute force says %d", len(rs.Rows), len(want))
	}
	if op.sample {
		for _, row := range rs.Rows {
			if !want[int(row[0].Int64())] {
				return fmt.Sprintf("site %d returned but does not intersect the window", row[0].Int64())
			}
		}
	}
	return ""
}

func (w *domainSearch) verify(db *extdb.DB) error {
	s := db.NewSession()
	if err := verifyText(s, w.docs.model); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	for i := 0; i < 20; i++ {
		x, y := rng.Float64()*(spatialExtent-windowSide), rng.Float64()*(spatialExtent-windowSide)
		op := searchOp{window: rect{x, y, x + windowSide, y + windowSide}, sample: true}
		rs, err := s.Query(sqlSpatial, op.window.value())
		if err != nil {
			return err
		}
		if msg := w.checkSpatial(op, rs); msg != "" {
			return fmt.Errorf("spatial check: %s", msg)
		}
	}
	return nil
}

func (w *domainSearch) guard(c counters) []string {
	var v []string
	if c.odciCalls(obs.CbFetch) == 0 || c.odciCalls(obs.CbStart) == 0 {
		v = append(v, "extidx idle: no ODCIIndexStart/Fetch in the window")
	}
	if c.chosenDomain == 0 {
		v = append(v, "planner never chose the DOMAIN path")
	}
	if c.walBytes != 0 || c.walSyncs != 0 {
		v = append(v, fmt.Sprintf("storage.wal did work on a read-only workload: %d bytes, %d fsyncs", c.walBytes, c.walSyncs))
	}
	if c.misses != 0 || c.evictions != 0 {
		v = append(v, fmt.Sprintf("working set left the cache: %d misses, %d evictions", c.misses, c.evictions))
	}
	if c.odciCalls(obs.CbInsert, obs.CbUpdate, obs.CbDelete) != 0 {
		v = append(v, "index maintenance ran on a read-only workload")
	}
	return v
}

func (w *domainSearch) liveBytes() int64 {
	n := w.docs.liveBytes()
	for i, r := range w.rects {
		n += int64(len(types.EncodeRow(nil, []types.Value{types.Int(int64(i)), r.value()})))
	}
	return n
}

func (w *domainSearch) statements() []string {
	return []string{sqlTextTerm, sqlTextScore, sqlSpatial, sqlDocInsert, sqlDocUpdate, sqlDocDelete}
}

func (w *domainSearch) probeRows() (keys, rows [][]byte) { return docProbeRows(w.corpus) }

// docProbeRows encodes a corpus as (id key, row) pairs.
func docProbeRows(corpus []string) (keys, rows [][]byte) {
	for id, body := range corpus {
		keys = append(keys, types.EncodeKey(nil, types.Int(int64(id))))
		rows = append(rows, types.EncodeRow(nil, []types.Value{types.Int(int64(id)), types.Str(body)}))
	}
	return keys, rows
}
