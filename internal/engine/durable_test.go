package engine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/extidx"
	"repro/internal/loblib"
	"repro/internal/storage"
)

// TestOpenRefusesRetiredFormat: a database written by the format whose
// commit records carried a dictionary snapshot is refused before WAL
// replay, with an error naming the format, and its log is left byte for
// byte as it was. Replay would otherwise end at the first commit record,
// whose payload is longer than a transaction id, and cut the log there.
func TestOpenRefusesRetiredFormat(t *testing.T) {
	backend := storage.NewMemBackend()
	if _, err := backend.Allocate(); err != nil {
		t.Fatal(err)
	}
	super := make([]byte, storage.PageSize)
	copy(super, retiredMagic[:])
	binary.BigEndian.PutUint32(super[8:12], uint32(storage.InvalidPage))
	if err := backend.WritePage(0, super); err != nil {
		t.Fatal(err)
	}
	// One committed batch in the retired format: a page image, then a
	// commit record of txn id, snapshot length and snapshot bytes.
	sink := storage.NewMemWALSink()
	if err := storage.NewWAL(sink, 0, 0).AppendPage(0, super); err != nil {
		t.Fatal(err)
	}
	snap := []byte("gob-encoded dictionary")
	payload := binary.BigEndian.AppendUint64(nil, 7)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(snap)))
	payload = append(payload, snap...)
	rec := make([]byte, 17, 17+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	rec[8] = 2 // commit
	binary.BigEndian.PutUint64(rec[9:17], 2)
	rec = append(rec, payload...)
	binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], crc32.MakeTable(crc32.Castagnoli)))
	if err := sink.Append(rec); err != nil {
		t.Fatal(err)
	}
	before, _ := sink.Contents()

	_, err := Open(Options{Backend: backend, WALSink: sink})
	if err == nil || !strings.Contains(err.Error(), "retired format") {
		t.Fatalf("Open of a retired-format database: got %v, want a retired-format error", err)
	}
	after, _ := sink.Contents()
	if !bytes.Equal(before, after) {
		t.Fatalf("refused Open changed the log: %d bytes before, %d after", len(before), len(after))
	}
}

// lobWork runs fn on the LOB store of s's explicit transaction inside
// its mutation window, as index maintenance callbacks run.
func lobWork(t *testing.T, s *Session, fn func(lobs loblib.Store) error) {
	t.Helper()
	exit := s.db.enterMutation(s.tx.ID, false)
	defer exit()
	if err := fn(s.server(extidx.ModeMaintenance, "").LOBs()); err != nil {
		t.Fatal(err)
	}
}

// writeLOB stores data as a new LOB and returns its locator.
func writeLOB(lobs loblib.Store, data []byte) (int64, error) {
	id, err := lobs.Create()
	if err != nil {
		return 0, err
	}
	blob, err := lobs.Open(id)
	if err == nil {
		_, err = blob.WriteAt(data, 0)
	}
	return id, err
}

// TestLOBShrinkFreesWaitForCommit: the pages a LOB shrink drops are
// still listed by the committed header until the shrink commits, so no
// other transaction may get them before then — nor after a rollback to
// a savepoint lists them again. In each case another transaction then
// commits a LOB as large as the shrunk one, and the shrunk LOB must
// still read its committed bytes: after a power failure with the shrink
// open, and live after the undone shrink's transaction commits.
func TestLOBShrinkFreesWaitForCommit(t *testing.T) {
	committed := bytes.Repeat([]byte("committed LOB bytes "), 3*storage.PageSize/20)
	for _, undo := range []bool{false, true} {
		backend, sink := storage.NewMemBackend(), storage.NewMemWALSink()
		db, err := Open(Options{Backend: backend, WALSink: sink, DisableBackgroundCheckpointer: true})
		if err != nil {
			t.Fatal(err)
		}
		a, b := db.NewSession(), db.NewSession()
		var id int64
		mustExec(t, a, `BEGIN`)
		lobWork(t, a, func(lobs loblib.Store) (err error) { id, err = writeLOB(lobs, committed); return err })
		mustExec(t, a, `COMMIT`)

		mustExec(t, a, `BEGIN`)
		sp := a.tx.Savepoint()
		lobWork(t, a, func(lobs loblib.Store) error {
			blob, err := lobs.Open(id)
			if err != nil {
				return err
			}
			return blob.Truncate(0)
		})
		if undo {
			if err := a.tx.RollbackTo(sp); err != nil {
				t.Fatal(err)
			}
			mustExec(t, a, `COMMIT`)
		}
		mustExec(t, b, `BEGIN`)
		lobWork(t, b, func(lobs loblib.Store) error {
			_, err := writeLOB(lobs, bytes.Repeat([]byte("x"), len(committed)))
			return err
		})
		mustExec(t, b, `COMMIT`)

		read := db
		if !undo {
			// Power fails with the shrink open: reopen the durable media.
			if read, err = Open(Options{Backend: backend, WALSink: sink}); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := read.LOBStore().Open(id)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(committed)+1)
		n, _ := blob.ReadAt(got, 0)
		if !bytes.Equal(got[:n], committed) {
			t.Fatalf("undo=%v: the shrunk LOB reads %d bytes, not its %d committed ones", undo, n, len(committed))
		}
		if err := read.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRecountsRowsAfterReplay: the dictionary chain holds row counts
// as of the last DDL or checkpoint, so an Open whose replay applied
// later commits recounts them instead of keeping the stale statistic.
func TestOpenRecountsRowsAfterReplay(t *testing.T) {
	backend, sink := storage.NewMemBackend(), storage.NewMemWALSink()
	db, err := Open(Options{Backend: backend, WALSink: sink, DisableBackgroundCheckpointer: true})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t(v NUMBER)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, s, `INSERT INTO t VALUES (4), (5)`)

	// Power fails: reopen the durable media without closing.
	db2, err := Open(Options{Backend: backend, WALSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, ok := db2.Catalog().Table("t")
	if !ok {
		t.Fatal("table t lost")
	}
	if tbl.RowCount != 5 {
		t.Fatalf("RowCount after replay = %d, want 5", tbl.RowCount)
	}
}
