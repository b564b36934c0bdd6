package engine

import (
	"testing"

	"repro/internal/storage"
)

// walDelta runs fn and returns what it added to the WAL counters.
func walDelta(db *DB, fn func()) storage.Stats {
	before := db.PagerStats()
	fn()
	after := db.PagerStats()
	return storage.Stats{
		WALPages:      after.WALPages - before.WALPages,
		WALFullPages:  after.WALFullPages - before.WALFullPages,
		WALDeltaBytes: after.WALDeltaBytes - before.WALDeltaBytes,
		WALBytes:      after.WALBytes - before.WALBytes,
		WALCommits:    after.WALCommits - before.WALCommits,
	}
}

// TestRolledBackFrameCostsLaterCommitsNothing: a rollback restores the
// rows it touched, and the next unrelated commit sweeps the orphaned
// frame. With the page byte-identical to what the log last recorded, the
// sweep must emit no record for it — the commit logs exactly the pages
// an identical commit logs with no rollback before it.
func TestRolledBackFrameCostsLaterCommitsNothing(t *testing.T) {
	db := newWALDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE a(id NUMBER, v NUMBER)`)
	mustExec(t, s, `CREATE TABLE b(id NUMBER, v NUMBER)`)
	mustExec(t, s, `INSERT INTO a VALUES (1, 10)`)
	mustExec(t, s, `INSERT INTO b VALUES (1, 10)`)

	control := walDelta(db, func() { mustExec(t, s, `UPDATE b SET v = 11 WHERE id = 1`) })
	if control.WALPages == 0 || control.WALFullPages != 0 || control.WALDeltaBytes == 0 {
		t.Fatalf("control update of an imaged page should log deltas only: %+v", control)
	}
	if control.WALBytes > storage.PageSize/2 {
		t.Fatalf("control commit logged %d bytes; a one-row update should be far below a page", control.WALBytes)
	}

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `UPDATE a SET v = 99 WHERE id = 1`)
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	got := walDelta(db, func() { mustExec(t, s, `UPDATE b SET v = 12 WHERE id = 1`) })
	if got.WALPages != control.WALPages || got.WALFullPages != 0 {
		t.Fatalf("commit after an unrelated rollback logged %d page records (%d full), want %d (0 full): the restored page was re-logged",
			got.WALPages, got.WALFullPages, control.WALPages)
	}
	// The restored frame left the unlogged state: a later commit does not
	// diff it again either.
	again := walDelta(db, func() { mustExec(t, s, `UPDATE b SET v = 13 WHERE id = 1`) })
	if again.WALPages != control.WALPages {
		t.Fatalf("second commit logged %d page records, want %d", again.WALPages, control.WALPages)
	}
	if err := db.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRestartsFullImages: the first commit to touch a page
// after a checkpoint logs its full image (the checkpoint truncated the
// log that held the previous one); the second logs a delta.
func TestCheckpointRestartsFullImages(t *testing.T) {
	db := newWALDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE a(id NUMBER, v NUMBER)`)
	mustExec(t, s, `INSERT INTO a VALUES (1, 10)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := walDelta(db, func() { mustExec(t, s, `UPDATE a SET v = 11 WHERE id = 1`) })
	if first.WALPages == 0 || first.WALFullPages != first.WALPages {
		t.Fatalf("first touch after a checkpoint: %+v, want every page record a full image", first)
	}
	second := walDelta(db, func() { mustExec(t, s, `UPDATE a SET v = 12 WHERE id = 1`) })
	if second.WALPages != first.WALPages || second.WALFullPages != 0 {
		t.Fatalf("second touch: %+v, want %d delta records", second, first.WALPages)
	}
}
