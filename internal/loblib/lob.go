// Package loblib implements large objects (LOBs): out-of-line byte
// streams stored in database pages and manipulated through a file-like
// interface (ReadAt / WriteAt / Truncate), which is how the chemistry
// cartridge of the paper migrated its file-based index into the database
// with "minimal changes to the index management software".
//
// The package also provides FileStore, an equivalent store backed by
// operating-system files, so that the E5 experiment can compare the
// paper's "file-based index" against its LOB-based replacement behind one
// interface, and a byte-range lock table implementing the finer-grained
// concurrency control that §5 of the paper proposes for LOB-resident
// index structures.
package loblib

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/storage"
)

// Blob is the file-like handle shared by LOB- and file-backed stores.
type Blob interface {
	io.ReaderAt
	io.WriterAt
	// Length returns the current byte length.
	Length() (int64, error)
	// Truncate sets the length, extending with zeros or discarding data.
	Truncate(size int64) error
}

// Stats counts operations against a store; the E5 benchmark reads these
// to reproduce the paper's "minimizes intermediate write operations"
// claim.
type Stats struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	// PhysicalWrites counts writes that reached durable media immediately
	// (file stores write through; LOB stores defer to buffer-pool
	// eviction/flush, so this stays low until a checkpoint).
	PhysicalWrites int64
}

// Store is the common interface of LOB and file blob stores.
type Store interface {
	Create() (int64, error)
	Open(id int64) (Blob, error)
	Delete(id int64) error
	Stats() Stats
}

// ---------------------------------------------------------------------------
// LOBStore: pager-backed LOBs.

type lobEntry struct {
	pages  []storage.PageID
	length int64
}

// LOBStore keeps LOBs in database pages, one chunk per page. All LOB data
// flows through the shared buffer pool, so it participates in the
// engine's caching and deferred write-back exactly as the paper describes.
type LOBStore struct {
	mu     sync.Mutex
	pager  *storage.Pager
	lobs   map[int64]*lobEntry
	nextID int64
	stats  Stats
	locks  *RangeLockTable
}

// NewLOBStore returns an empty LOB store over the pager.
func NewLOBStore(p *storage.Pager) *LOBStore {
	return &LOBStore{
		pager:  p,
		lobs:   make(map[int64]*lobEntry),
		nextID: 1,
		locks:  NewRangeLockTable(),
	}
}

// Create allocates an empty LOB and returns its locator id.
func (s *LOBStore) Create() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.lobs[id] = &lobEntry{}
	return id, nil
}

// Open returns a handle on the LOB with the given locator.
func (s *LOBStore) Open(id int64) (Blob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lobs[id]
	if !ok {
		return nil, fmt.Errorf("loblib: no LOB with locator %d", id)
	}
	return &lobHandle{store: s, entry: e}, nil
}

// Delete frees the LOB's pages and its locator.
func (s *LOBStore) Delete(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lobs[id]
	if !ok {
		return fmt.Errorf("loblib: no LOB with locator %d", id)
	}
	for _, pg := range e.pages {
		s.pager.Free(pg)
	}
	delete(s.lobs, id)
	return nil
}

// Stats implements Store.
func (s *LOBStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	// Physical writes for LOB data are whatever the pager wrote back.
	st.PhysicalWrites = s.pager.Stats().Writes
	return st
}

// Locks exposes the byte-range lock table for LOB-resident index
// structures (§5's proposed concurrency mechanism).
func (s *LOBStore) Locks() *RangeLockTable { return s.locks }

// DirEntry is the serializable directory record of one LOB.
type DirEntry struct {
	ID     int64
	Pages  []storage.PageID
	Length int64
}

// Snapshot exports the LOB directory for persistence.
func (s *LOBStore) Snapshot() []DirEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DirEntry, 0, len(s.lobs))
	for id, e := range s.lobs {
		out = append(out, DirEntry{ID: id, Pages: append([]storage.PageID(nil), e.pages...), Length: e.length})
	}
	return out
}

// Restore replaces the LOB directory from a snapshot (database reopen).
func (s *LOBStore) Restore(entries []DirEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lobs = make(map[int64]*lobEntry, len(entries))
	s.nextID = 1
	for _, e := range entries {
		s.lobs[e.ID] = &lobEntry{pages: append([]storage.PageID(nil), e.Pages...), length: e.Length}
		if e.ID >= s.nextID {
			s.nextID = e.ID + 1
		}
	}
}

type lobHandle struct {
	store *LOBStore
	entry *lobEntry
}

func (h *lobHandle) Length() (int64, error) {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	return h.entry.length, nil
}

func (h *lobHandle) Truncate(size int64) error {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("loblib: negative truncate size")
	}
	need := int((size + storage.PageSize - 1) / storage.PageSize)
	for len(h.entry.pages) > need {
		last := h.entry.pages[len(h.entry.pages)-1]
		h.store.pager.Free(last)
		h.entry.pages = h.entry.pages[:len(h.entry.pages)-1]
	}
	for len(h.entry.pages) < need {
		pg, err := h.store.pager.NewPage()
		if err != nil {
			return err
		}
		h.store.pager.Unpin(pg, true)
		h.entry.pages = append(h.entry.pages, pg.ID)
	}
	if size < h.entry.length && size%storage.PageSize != 0 {
		// Zero the tail of the last page beyond the new length.
		idx := int(size / storage.PageSize)
		pg, err := h.store.pager.Fetch(h.entry.pages[idx])
		if err != nil {
			return err
		}
		h.store.pager.WillWrite(pg)
		for i := size % storage.PageSize; i < storage.PageSize; i++ {
			pg.Data[i] = 0
		}
		h.store.pager.Unpin(pg, true)
	}
	h.entry.length = size
	return nil
}

func (h *lobHandle) ReadAt(p []byte, off int64) (int, error) {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	h.store.stats.ReadOps++
	if off < 0 {
		return 0, fmt.Errorf("loblib: negative offset")
	}
	if off >= h.entry.length {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && off < h.entry.length {
		idx := int(off / storage.PageSize)
		inPage := int(off % storage.PageSize)
		pg, err := h.store.pager.Fetch(h.entry.pages[idx])
		if err != nil {
			return n, err
		}
		avail := storage.PageSize - inPage
		if rem := h.entry.length - off; int64(avail) > rem {
			avail = int(rem)
		}
		c := copy(p[n:], pg.Data[inPage:inPage+avail])
		h.store.pager.Unpin(pg, false)
		n += c
		off += int64(c)
	}
	h.store.stats.BytesRead += int64(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *lobHandle) WriteAt(p []byte, off int64) (int, error) {
	h.store.mu.Lock()
	h.store.stats.WriteOps++
	h.store.stats.BytesWritten += int64(len(p))
	end := off + int64(len(p))
	// Extend page list as needed (without zero-filling intermediate data;
	// fresh pages are already zeroed).
	need := int((end + storage.PageSize - 1) / storage.PageSize)
	for len(h.entry.pages) < need {
		pg, err := h.store.pager.NewPage()
		if err != nil {
			h.store.mu.Unlock()
			return 0, err
		}
		h.store.pager.Unpin(pg, true)
		h.entry.pages = append(h.entry.pages, pg.ID)
	}
	if end > h.entry.length {
		h.entry.length = end
	}
	n := 0
	for n < len(p) {
		idx := int(off / storage.PageSize)
		inPage := int(off % storage.PageSize)
		pg, err := h.store.pager.Fetch(h.entry.pages[idx])
		if err != nil {
			h.store.mu.Unlock()
			return n, err
		}
		h.store.pager.WillWrite(pg)
		c := copy(pg.Data[inPage:], p[n:])
		h.store.pager.Unpin(pg, true)
		n += c
		off += int64(c)
	}
	h.store.mu.Unlock()
	return n, nil
}

// ---------------------------------------------------------------------------
// FileStore: blobs as operating-system files (the pre-migration world of
// the chemistry cartridge). Writes go straight to the file system — these
// are the "intermediate write operations" the LOB design avoids.

// FileStore keeps each blob in its own file under dir.
type FileStore struct {
	mu     sync.Mutex
	dir    string
	nextID int64
	stats  Stats
	sync   bool // fsync after each write, modelling conservative index code
}

// NewFileStore returns a file-backed blob store rooted at dir. When
// syncEveryWrite is set, every WriteAt is followed by an fsync, the way
// crash-safe file-based index implementations behave.
func NewFileStore(dir string, syncEveryWrite bool) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, nextID: 1, sync: syncEveryWrite}, nil
}

func (s *FileStore) path(id int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("blob-%d.dat", id))
}

// Create implements Store.
func (s *FileStore) Create() (int64, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()
	f, err := os.Create(s.path(id))
	if err != nil {
		return 0, err
	}
	return id, f.Close()
}

// Open implements Store.
func (s *FileStore) Open(id int64) (Blob, error) {
	f, err := os.OpenFile(s.path(id), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("loblib: %w", err)
	}
	return &fileHandle{store: s, f: f}, nil
}

// Delete implements Store.
func (s *FileStore) Delete(id int64) error {
	return os.Remove(s.path(id))
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

type fileHandle struct {
	store *FileStore
	f     *os.File
}

func (h *fileHandle) ReadAt(p []byte, off int64) (int, error) {
	n, err := h.f.ReadAt(p, off)
	h.store.mu.Lock()
	h.store.stats.ReadOps++
	h.store.stats.BytesRead += int64(n)
	h.store.mu.Unlock()
	return n, err
}

func (h *fileHandle) WriteAt(p []byte, off int64) (int, error) {
	n, err := h.f.WriteAt(p, off)
	h.store.mu.Lock()
	h.store.stats.WriteOps++
	h.store.stats.BytesWritten += int64(n)
	h.store.stats.PhysicalWrites++
	h.store.mu.Unlock()
	if err == nil && h.store.sync {
		err = h.f.Sync()
	}
	return n, err
}

func (h *fileHandle) Length() (int64, error) {
	st, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (h *fileHandle) Truncate(size int64) error { return h.f.Truncate(size) }

// Close releases the underlying file (LOB handles need no close).
func (h *fileHandle) Close() error { return h.f.Close() }
