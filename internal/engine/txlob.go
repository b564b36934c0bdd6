package engine

import (
	"io"

	"repro/internal/loblib"
	"repro/internal/storage"
	"repro/internal/txn"
)

// txLOBStore is the transactional view of the database LOB store handed
// to indextype callbacks. Every mutation records an undo entry on the
// session's current transaction, so LOB-resident index data observes the
// same transactional boundaries as the base table (§2.5). Reads pass
// through unchanged.
type txLOBStore struct {
	s *Session
}

// active reports whether the session is inside a running transaction.
func (t txLOBStore) active() bool { return t.s.tx != nil && t.s.tx.State() == txn.Active }

func (t txLOBStore) record(u txn.Undoer) {
	if t.active() {
		t.s.tx.Record(u)
	}
}

// atCommit runs fn when the running transaction commits, unless the
// statement that asked for it is rolled back first: a rollback to a
// savepoint undoes the statement but keeps the transaction's commit
// hooks.
func (t txLOBStore) atCommit(fn func()) {
	cancelled := false
	t.s.tx.OnCommit(func() {
		if !cancelled {
			fn()
		}
	})
	t.s.tx.Record(txn.UndoFunc(func() error { cancelled = true; return nil }))
}

// Create implements loblib.Store.
func (t txLOBStore) Create() (int64, error) {
	id, err := t.s.db.lobs.Create()
	if err != nil {
		return 0, err
	}
	t.record(txn.UndoFunc(func() error { return t.s.db.lobs.Delete(id) }))
	return id, nil
}

// Open implements loblib.Store.
func (t txLOBStore) Open(id int64) (loblib.Blob, error) {
	b, err := t.s.db.lobs.Open(id)
	if err != nil {
		return nil, err
	}
	return txBlob{store: t, inner: b, id: id}, nil
}

// Delete implements loblib.Store. Deleting a LOB inside a transaction is
// irreversible at this layer, so it is deferred to commit: the LOB
// remains readable until the transaction resolves.
func (t txLOBStore) Delete(id int64) error {
	if t.active() {
		t.atCommit(func() {
			//vetx:ignore erraudit -- commit hooks have no error channel; deferred LOB removal is best-effort GC
			t.s.db.lobs.Delete(id)
		})
		return nil
	}
	return t.s.db.lobs.Delete(id)
}

// Stats implements loblib.Store.
func (t txLOBStore) Stats() loblib.Stats { return t.s.db.lobs.Stats() }

// txBlob wraps a LOB handle, logging before-images for undo.
type txBlob struct {
	store txLOBStore
	inner loblib.Blob
	id    int64
}

// ReadAt implements loblib.Blob.
func (b txBlob) ReadAt(p []byte, off int64) (int, error) { return b.inner.ReadAt(p, off) }

// Length implements loblib.Blob.
func (b txBlob) Length() (int64, error) { return b.inner.Length() }

// WriteAt implements loblib.Blob: capture the overwritten range and the
// old length so the write can be reversed.
func (b txBlob) WriteAt(p []byte, off int64) (int, error) {
	oldLen, err := b.inner.Length()
	if err != nil {
		return 0, err
	}
	var before []byte
	if off < oldLen {
		n := int64(len(p))
		if off+n > oldLen {
			n = oldLen - off
		}
		before = make([]byte, n)
		if _, err := b.inner.ReadAt(before, off); err != nil && err != io.EOF {
			return 0, err
		}
	}
	n, err := b.inner.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	inner := b.inner
	b.store.record(txn.UndoFunc(func() error {
		if len(before) > 0 {
			if _, err := inner.WriteAt(before, off); err != nil {
				return err
			}
		}
		return inner.Truncate(oldLen)
	}))
	return n, nil
}

// Truncate implements loblib.Blob. A grow is undone by cutting back. A
// shrink inside a transaction keeps the pages it drops until the
// transaction resolves: the committed header lists them until this
// transaction commits, so they are freed only then, and the undo lists
// them again and restores the tail bytes the shrink zeroed.
func (b txBlob) Truncate(size int64) error {
	oldLen, err := b.inner.Length()
	if err != nil {
		return err
	}
	inner := b.inner
	if size >= oldLen || !b.store.active() {
		if err := inner.Truncate(size); err != nil {
			return err
		}
		b.store.record(txn.UndoFunc(func() error { return inner.Truncate(oldLen) }))
		return nil
	}
	pageEnd := (size + storage.PageSize - 1) / storage.PageSize * storage.PageSize
	tail := make([]byte, min(oldLen, pageEnd)-size)
	if _, err := inner.ReadAt(tail, size); err != nil && err != io.EOF {
		return err
	}
	db := b.store.s.db
	dropped, err := db.lobs.Shrink(b.id, size)
	if err != nil {
		return err
	}
	id := b.id
	b.store.atCommit(func() {
		for _, pg := range dropped {
			db.pager.Free(pg)
		}
	})
	b.store.record(txn.UndoFunc(func() error {
		if err := db.lobs.Reattach(id, dropped, oldLen); err != nil {
			return err
		}
		_, err := inner.WriteAt(tail, size)
		return err
	}))
	return nil
}
