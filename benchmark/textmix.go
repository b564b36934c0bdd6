package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	extdb "repro"
	"repro/internal/types"
	"repro/internal/wordgen"
)

// The text corpus shape both text workloads share: Zipfian documents of
// docTokens tokens over a vocabulary of textVocab words.
const (
	docTokens = 30
	textVocab = 1500
)

// Term rank bands of the query mix. Rank 0 is the most frequent word; at
// Zipf s=1.2 a rank past 300 occurs in under 1% of the documents and one
// past 150 in under 2%. The AND query pairs a common term with one from
// the 2% band: the optimizer costs a conjunction by its rarer term, and
// Score is only defined when it picks the domain scan, so the rarer term
// must keep that choice safe at this corpus size.
const (
	rareLo, rareHi         = 300, textVocab
	moderateLo, moderateHi = 150, 300
	andCommonHi            = 50
	andOtherLo, andOtherHi = 150, 400
)

const (
	sqlTextTerm  = `SELECT id FROM docs WHERE Contains(body, ?)`
	sqlTextScore = `SELECT id, Score(1) FROM docs WHERE Contains(body, ?, 1) ORDER BY Score(1) DESC`
)

// sampleEvery is the oracle's full-content sampling rate: row counts are
// checked on every reply, full content on one reply in sampleEvery.
const sampleEvery = 16

// textQuery is one generated text operation.
type textQuery struct {
	kind   opKind
	terms  []string // one term, or the two AND terms
	sample bool     // full-content check
}

func (q textQuery) String() string {
	return fmt.Sprintf("%s %s sample=%t", kindNames[q.kind], strings.Join(q.terms, "&"), q.sample)
}

func (q textQuery) sql() (string, extdb.Value) {
	if q.kind == kTextAnd {
		return sqlTextScore, extdb.Str(q.terms[0] + " AND " + q.terms[1])
	}
	return sqlTextTerm, extdb.Str(q.terms[0])
}

// genTextQuery draws one text query. The three classes keep the 5:2:1
// proportion of the domain_search mix.
func genTextQuery(rng *rand.Rand) textQuery {
	q := textQuery{}
	switch r := rng.Intn(8); {
	case r < 5:
		q.kind, q.terms = kTextRare, []string{wordgen.Word(rareLo + rng.Intn(rareHi-rareLo))}
	case r < 7:
		q.kind = kTextAnd
		q.terms = []string{wordgen.Word(rng.Intn(andCommonHi)), wordgen.Word(andOtherLo + rng.Intn(andOtherHi-andOtherLo))}
	default:
		q.kind, q.terms = kTextModerate, []string{wordgen.Word(moderateLo + rng.Intn(moderateHi-moderateLo))}
	}
	q.sample = rng.Intn(sampleEvery) == 0
	return q
}

// textModel is the harness-side inverted map: term -> document id ->
// term frequency, plus the documents themselves.
type textModel struct {
	docs     map[int]string
	postings map[string]map[int]int
	bytes    int64 // encoded size of the live rows
}

func newTextModel() *textModel {
	return &textModel{docs: map[int]string{}, postings: map[string]map[int]int{}}
}

func docRowBytes(id int, body string) int64 {
	return int64(len(types.EncodeRow(nil, []types.Value{types.Int(int64(id)), types.Str(body)})))
}

func (m *textModel) add(id int, body string) {
	m.docs[id] = body
	m.bytes += docRowBytes(id, body)
	for _, tok := range strings.Fields(body) {
		p := m.postings[tok]
		if p == nil {
			p = map[int]int{}
			m.postings[tok] = p
		}
		p[id]++
	}
}

func (m *textModel) remove(id int) {
	body, ok := m.docs[id]
	if !ok {
		return
	}
	delete(m.docs, id)
	m.bytes -= docRowBytes(id, body)
	for _, tok := range strings.Fields(body) {
		if p := m.postings[tok]; p != nil {
			delete(p, id)
		}
	}
}

// expect returns the documents matching q with their scores (the sum of
// the matched terms' frequencies, which is what the cartridge ranks by).
func (m *textModel) expect(q textQuery) map[int]float64 {
	out := map[int]float64{}
	first := m.postings[q.terms[0]]
	for id, tf := range first {
		score, ok := float64(tf), true
		for _, t := range q.terms[1:] {
			tf2, has := m.postings[t][id]
			if !has {
				ok = false
				break
			}
			score += float64(tf2)
		}
		if ok {
			out[id] = score
		}
	}
	return out
}

// checkTextReply compares a reply with the expectation, ignoring the
// documents in skip (writes in flight while the query ran). It returns
// "" when the reply is right.
func checkTextReply(q textQuery, rs *extdb.ResultSet, want map[int]float64, skip map[int]bool) string {
	got := 0
	lastScore := 0.0
	for i, row := range rs.Rows {
		id := int(row[0].Int64())
		if q.kind == kTextAnd {
			if s := row[1].Float(); i > 0 && s > lastScore {
				return fmt.Sprintf("row %d: score %v after %v, not descending", i, s, lastScore)
			}
			lastScore = row[1].Float()
		}
		if skip[id] {
			continue
		}
		got++
		if !q.sample {
			continue
		}
		score, ok := want[id]
		if !ok {
			return fmt.Sprintf("document %d returned but does not match %v", id, q.terms)
		}
		if q.kind == kTextAnd && row[1].Float() != score {
			return fmt.Sprintf("document %d scored %v, model says %v", id, row[1].Float(), score)
		}
	}
	expected := 0
	for id := range want {
		if !skip[id] {
			expected++
		}
	}
	if got != expected {
		return fmt.Sprintf("%v returned %d rows, model says %d", q.terms, got, expected)
	}
	return ""
}

// verifyText checks the docs table and the text index against the model:
// the table holds exactly the model's documents, and a spread of terms
// retrieves exactly the model's postings.
func verifyText(s *extdb.Session, m *textModel) error {
	rs, err := s.Query(`SELECT id, body FROM docs`)
	if err != nil {
		return err
	}
	if len(rs.Rows) != len(m.docs) {
		return fmt.Errorf("docs holds %d rows, model holds %d", len(rs.Rows), len(m.docs))
	}
	for _, row := range rs.Rows {
		id := int(row[0].Int64())
		if body, ok := m.docs[id]; !ok || body != row[1].Text() {
			return fmt.Errorf("document %d differs from the model (present in model: %t)", id, ok)
		}
	}
	for rank := 0; rank < textVocab; rank += 37 {
		q := textQuery{kind: kTextRare, terms: []string{wordgen.Word(rank)}, sample: true}
		text, arg := q.sql()
		rs, err := s.Query(text, arg)
		if err != nil {
			return err
		}
		if msg := checkTextReply(q, rs, m.expect(q), nil); msg != "" {
			return fmt.Errorf("index check: %s", msg)
		}
	}
	return nil
}

// loadDocs inserts the corpus, document i under id i.
func loadDocs(s *extdb.Session, corpus []string) error {
	return loadRows(s, len(corpus), func(i int) (string, []extdb.Value) {
		return `INSERT INTO docs VALUES (?, ?)`, []extdb.Value{extdb.Int(int64(i)), extdb.Str(corpus[i])}
	})
}

// loadRows runs n generated INSERTs in transactions of loadBatch rows,
// the way a bulk loader would.
func loadRows(s *extdb.Session, n int, row func(i int) (string, []extdb.Value)) error {
	const loadBatch = 500
	for i := 0; i < n; i++ {
		if i%loadBatch == 0 {
			if err := s.Begin(); err != nil {
				return err
			}
		}
		text, args := row(i)
		if _, err := s.Exec(text, args...); err != nil {
			return err
		}
		if i%loadBatch == loadBatch-1 || i == n-1 {
			if err := s.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// timedExec runs a statement and returns how long it took.
func timedExec(s *extdb.Session, text string) (time.Duration, error) {
	start := time.Now()
	_, err := s.Exec(text)
	return time.Since(start), err
}

// docTable is the harness-side state of a docs table that takes DML: the
// model, and the log of writes a concurrent reader needs for its check.
type docTable struct {
	// mu guards everything below: the writer applies a change when the
	// database has acknowledged it, a reader snapshots its expectation
	// before it sends a query.
	mu    sync.Mutex
	model *textModel
	live  []int // ids present in the model, the writer's UPDATE/DELETE targets
	next  int   // next id to INSERT
	// started is the id each write touched, in issue order; acked counts
	// the prefix the database has acknowledged. A query that overlaps
	// writes started[ackedAtItsStart:len(started)AtItsEnd] cannot know
	// whether they are visible, so its check leaves those ids out.
	started []int
	acked   int
}

// newDocTable models a table loaded with the corpus, document i under id i.
func newDocTable(corpus []string) *docTable {
	t := &docTable{model: newTextModel(), next: len(corpus)}
	for id, body := range corpus {
		t.model.add(id, body)
		t.live = append(t.live, id)
	}
	return t
}

func (t *docTable) liveBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.model.bytes
}

const (
	sqlDocInsert = `INSERT INTO docs VALUES (?, ?)`
	sqlDocUpdate = `UPDATE docs SET body = ? WHERE id = ?`
	sqlDocDelete = `DELETE FROM docs WHERE id = ?`
)

// docWrite is one generated DML statement.
type docWrite struct {
	kind opKind // kInsert, kUpdate, kDelete
	id   int
	body string // new body for insert and update
}

func (d docWrite) String() string { return fmt.Sprintf("%s %d %q", kindNames[d.kind], d.id, d.body) }

// genDocWrite draws from the DML mix — 60% INSERT, 25% UPDATE body, 15%
// DELETE — against the ids live now.
func genDocWrite(rng *rand.Rand, words *wordgen.Generator, live []int, next int) docWrite {
	r := rng.Intn(20)
	switch {
	case r < 12 || len(live) == 0:
		return docWrite{kind: kInsert, id: next, body: words.Document(docTokens)}
	case r < 17:
		return docWrite{kind: kUpdate, id: live[rng.Intn(len(live))], body: words.Document(docTokens)}
	}
	return docWrite{kind: kDelete, id: live[rng.Intn(len(live))]}
}

// apply moves the model to the state after d. Caller holds mu.
func (t *docTable) apply(d docWrite) {
	switch d.kind {
	case kInsert:
		t.model.add(d.id, d.body)
		t.live = append(t.live, d.id)
		t.next++
	case kUpdate:
		t.model.remove(d.id)
		t.model.add(d.id, d.body)
	case kDelete:
		t.model.remove(d.id)
		for i, id := range t.live {
			if id == d.id {
				t.live[i] = t.live[len(t.live)-1]
				t.live = t.live[:len(t.live)-1]
				break
			}
		}
	}
}

// docWriter is the client that issues the autocommit DML mix against a
// docs table, each statement implicitly maintaining the text index.
type docWriter struct {
	t     *docTable
	c     conn
	rng   *rand.Rand
	words *wordgen.Generator
}

func newDocWriter(t *docTable, db *extdb.DB, seed int64) *docWriter {
	return &docWriter{t: t, c: conn{s: db.NewSession()}, rng: clientRNG(seed, 0), words: wordgen.New(seed+1, textVocab)}
}

func (dw *docWriter) step(seq int, tr *clientTrace) opResult {
	t := dw.t
	t.mu.Lock()
	d := genDocWrite(dw.rng, dw.words, t.live, t.next)
	t.started = append(t.started, d.id)
	t.mu.Unlock()

	res := opResult{kind: d.kind}
	var affected int64
	dw.c.startOp(seq, tr, d.kind)
	start := time.Now()
	res.retries, res.err = withRetry(func() error {
		var r extdb.Result
		var err error
		switch d.kind {
		case kInsert:
			r, err = dw.c.exec(sqlDocInsert, extdb.Int(int64(d.id)), extdb.Str(d.body))
		case kUpdate:
			r, err = dw.c.exec(sqlDocUpdate, extdb.Str(d.body), extdb.Int(int64(d.id)))
		default:
			r, err = dw.c.exec(sqlDocDelete, extdb.Int(int64(d.id)))
		}
		affected = r.RowsAffected
		return err
	})
	res.lat = time.Since(start)
	dw.c.endOp()

	t.mu.Lock()
	if res.err == nil {
		t.apply(d)
	}
	t.acked++
	t.mu.Unlock()
	if res.err != nil {
		return res
	}
	if affected != 1 {
		res.checkFail = fmt.Sprintf("%s of document %d touched %d rows, want 1", kindNames[d.kind], d.id, affected)
	}
	if d.kind != kDelete {
		res.userBytes = docRowBytes(d.id, d.body)
	}
	return res
}
