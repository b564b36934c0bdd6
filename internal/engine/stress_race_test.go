package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// TestConcurrentSessionsStress drives several sessions against one engine
// at once: writers run DML on the indexed base table (each statement
// fires the domain-index maintenance callbacks, which read and write the
// DR$ index-data tables through server callbacks), while readers
// interleave domain-index scans, full scans, and EXPLAINs of the same
// operator predicate. Writers admit shared, so two of them touching the
// same index pages meet a write conflict, which is retryable and
// skipped here. CI runs it under -race with -tags invariants, so it
// doubles as the detector for unsynchronized pager/heap access, leaked
// pins (checked when newDB's cleanup closes the pager), leaked workspace
// handles, and B+-tree structural corruption.
func TestConcurrentSessionsStress(t *testing.T) {
	db := newDB(t)
	m := &kwMethods{}
	setup := setupKwCartridge(t, db, m)
	mustExec(t, setup, `CREATE INDEX DocKwIdx ON Docs(body) INDEXTYPE IS KwIndexType`)

	writers, readers, iters := 4, 4, 40
	if testing.Short() {
		writers, readers, iters = 2, 2, 10
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < iters; i++ {
				id := int64(100000 + w*10000 + i)
				body := fmt.Sprintf("stress unix oracle doc writer%d iter%d", w, i)
				if _, err := s.Exec(`INSERT INTO Docs VALUES (?, ?)`, types.Int(id), types.Str(body)); err != nil {
					if errors.Is(err, storage.ErrWriteConflict) {
						continue
					}
					errc <- fmt.Errorf("writer %d insert %d: %w", w, id, err)
					return
				}
				var err error
				switch i % 4 {
				case 1:
					_, err = s.Exec(`UPDATE Docs SET body = ? WHERE id = ?`,
						types.Str(fmt.Sprintf("rewritten kernel database writer%d iter%d", w, i)), types.Int(id))
				case 2:
					_, err = s.Exec(`DELETE FROM Docs WHERE id = ?`, types.Int(id))
				}
				if err != nil && !errors.Is(err, storage.ErrWriteConflict) {
					errc <- fmt.Errorf("writer %d update or delete %d: %w", w, id, err)
					return
				}
			}
		}(w)
	}

	keywords := []string{"unix", "oracle", "kernel", "database"}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < iters; i++ {
				kw := keywords[(r+i)%len(keywords)]
				// Domain-index scan through the ODCIIndex Start/Fetch/Close
				// callbacks.
				s.SetForcedPath(ForceDomainScan)
				rs, err := s.Query(`SELECT id FROM Docs WHERE HasKw(body, ?) = 1`, types.Str(kw))
				if err != nil {
					errc <- fmt.Errorf("reader %d domain scan %q: %w", r, kw, err)
					return
				}
				domainHits := len(rs.Rows)
				// Run the same predicate as a full scan too. The table can
				// change between the two statements (writers are live), so
				// equality is only asserted after the workers quiesce; here
				// both scans just have to succeed.
				s.SetForcedPath(ForceFullScan)
				rs, err = s.Query(`SELECT COUNT(*) FROM Docs WHERE HasKw(body, ?) = 1`, types.Str(kw))
				if err != nil {
					errc <- fmt.Errorf("reader %d full scan %q: %w", r, kw, err)
					return
				}
				if int(rs.Rows[0][0].Int64()) < 0 || domainHits < 0 {
					errc <- fmt.Errorf("reader %d got negative count", r)
					return
				}
				s.SetForcedPath(ForceAuto)
				if i%7 == 0 {
					if _, err := s.Query(`EXPLAIN SELECT id FROM Docs WHERE HasKw(body, ?) = 1`, types.Str(kw)); err != nil {
						errc <- fmt.Errorf("reader %d explain: %w", r, err)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Quiesced: no scan contexts may survive their statements.
	if live := db.Workspace().Live(); live != 0 {
		t.Errorf("workspace leaked %d scan handles", live)
	}

	// Deterministic final check: with writers quiesced, the domain index
	// and a full scan must agree exactly for every keyword.
	s := db.NewSession()
	for _, kw := range keywords {
		s.SetForcedPath(ForceDomainScan)
		idx := mustQuery(t, s, `SELECT COUNT(*) FROM Docs WHERE HasKw(body, ?) = 1`, types.Str(kw)).Rows[0][0].Int64()
		s.SetForcedPath(ForceFullScan)
		full := mustQuery(t, s, `SELECT COUNT(*) FROM Docs WHERE HasKw(body, ?) = 1`, types.Str(kw)).Rows[0][0].Int64()
		if idx != full {
			t.Errorf("keyword %q: domain index sees %d rows, full scan sees %d", kw, idx, full)
		}
	}
}
