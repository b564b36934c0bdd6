package main

import (
	"fmt"
	"math/rand"

	extdb "repro"
	"repro/internal/obs"
	"repro/internal/wordgen"
)

// mixedMaintain runs autocommit DML on a text-indexed table (client 0,
// every statement implicitly maintaining the domain index under
// exclusive admission) beside the domain_search text mix on the same
// table (client 1).
type mixedMaintain struct {
	seed   int64
	corpus []string
	docs   *docTable
}

func newMixedMaintain(seed int64, scale float64) *mixedMaintain {
	w := &mixedMaintain{seed: seed}
	w.corpus = wordgen.New(seed, textVocab).Corpus(scaled(2000, scale), docTokens)
	w.docs = newDocTable(w.corpus)
	return w
}

// options lowers the log-growth checkpoint trigger from its 64 MiB
// default: at this workload's redo rate the default fires about once in
// five seconds, and a window has to hold several checkpoint cycles for
// their stalls to show in the tails the same way on every run.
func (w *mixedMaintain) options(path string) extdb.Options {
	return extdb.Options{Path: path, CheckpointWALBytes: 16 << 20}
}

func (w *mixedMaintain) install(db *extdb.DB) error {
	return extdb.InstallTextCartridge(db, db.NewSession())
}

func (w *mixedMaintain) setup(db *extdb.DB) (setupStats, error) {
	st := setupStats{textDocs: len(w.corpus)}
	s := db.NewSession()
	if _, err := s.Exec(`CREATE TABLE docs(id NUMBER, body VARCHAR2)`); err != nil {
		return st, err
	}
	if err := loadDocs(s, w.corpus); err != nil {
		return st, err
	}
	var err error
	if st.textBuild, err = timedExec(s, `CREATE INDEX doc_text ON docs(body) INDEXTYPE IS TextIndexType`); err != nil {
		return st, err
	}
	btree, err := timedExec(s, `CREATE INDEX doc_id ON docs(id)`)
	st.indexBuild = st.textBuild + btree
	return st, err
}

type docReader struct {
	w   *mixedMaintain
	c   conn
	rng *rand.Rand
}

func (w *mixedMaintain) clients(db *extdb.DB) []client {
	return []client{
		newDocWriter(w.docs, db, w.seed),
		&docReader{w: w, c: conn{s: db.NewSession()}, rng: clientRNG(w.seed, 1)},
	}
}

// writers is nil: the window has its own writer.
func (w *mixedMaintain) writers(db *extdb.DB) []client { return nil }

func (dr *docReader) step(seq int, tr *clientTrace) opResult {
	t := dr.w.docs
	q := genTextQuery(dr.rng)
	t.mu.Lock()
	want := t.model.expect(q)
	from := t.acked
	t.mu.Unlock()
	return runTextQuery(&dr.c, seq, tr, q, want, func() map[int]bool {
		t.mu.Lock()
		defer t.mu.Unlock()
		if from == len(t.started) {
			return nil
		}
		skip := map[int]bool{}
		for _, id := range t.started[from:] {
			skip[id] = true
		}
		return skip
	})
}

// verify runs between windows, when no client is running, so it reads
// the model without mu (and must: its queries reach cartridge callbacks,
// which the repo's lock discipline forbids under any lock).
func (w *mixedMaintain) verify(db *extdb.DB) error {
	return verifyText(db.NewSession(), w.docs.model)
}

func (w *mixedMaintain) guard(c counters) []string {
	var v []string
	for _, cb := range []obs.Callback{obs.CbInsert, obs.CbUpdate, obs.CbDelete, obs.CbStart, obs.CbFetch} {
		if c.odciCalls(cb) == 0 {
			v = append(v, fmt.Sprintf("extidx idle: no %s in the window", cb))
		}
	}
	if c.walSyncs == 0 {
		v = append(v, "storage.wal idle: no fsync in the window")
	}
	if c.bgCheckpoints < 2 {
		v = append(v, fmt.Sprintf("only %d background checkpoints in the window, want at least 2", c.bgCheckpoints))
	}
	if c.admitWaits == 0 {
		v = append(v, "engine admission never taken")
	}
	return v
}

func (w *mixedMaintain) liveBytes() int64 { return w.docs.liveBytes() }

func (w *mixedMaintain) statements() []string {
	return []string{sqlDocInsert, sqlDocUpdate, sqlDocDelete, sqlTextTerm, sqlTextScore}
}

func (w *mixedMaintain) probeRows() (keys, rows [][]byte) { return docProbeRows(w.corpus) }
