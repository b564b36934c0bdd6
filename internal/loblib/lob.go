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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// A LOB lives entirely in database pages, one chunk per page. Its locator
// is the id of its header page, which holds the byte length and the ids
// of the LOB's data pages; when the list outgrows the header it continues
// on overflow pages chained from it. Every chain page has one layout:
//
//	magic (4) | next chain page (4) | length (8, header only) | page ids (4 each)
//
// The i-th data page's id sits in slot i of the chain, and a LOB of
// length n has exactly ceil(n/PageSize) data pages. Bytes past the length
// in the last data page are kept zero, so a LOB that grows never exposes
// stale data. Chain pages are kept when a LOB shrinks and reused when it
// grows; only Delete releases them.
const (
	lobHeaderBytes = 16
	lobSlots       = (storage.PageSize - lobHeaderBytes) / 4
)

var (
	lobHeaderMagic   = [4]byte{'L', 'O', 'B', 'H'}
	lobOverflowMagic = [4]byte{'L', 'O', 'B', 'O'}
)

// LOBStore keeps LOBs in database pages. All LOB data flows through the
// shared buffer pool, so it participates in the engine's caching,
// logging and deferred write-back exactly as the paper describes; the
// store itself holds no state but its counters.
type LOBStore struct {
	mu    sync.Mutex
	pager *storage.Pager
	stats Stats
	locks *RangeLockTable
}

// NewLOBStore returns a LOB store over the pager.
func NewLOBStore(p *storage.Pager) *LOBStore {
	return &LOBStore{pager: p, locks: NewRangeLockTable()}
}

// lobMeta is a LOB's header chain as read from its pages.
type lobMeta struct {
	length int64
	chain  []storage.PageID // header page, then overflow pages in order
	pages  []storage.PageID // data pages, ceil(length/PageSize) of them
}

func pagesFor(n int64) int { return int((n + storage.PageSize - 1) / storage.PageSize) }

// load reads the header chain of the LOB with the given locator,
// rejecting a locator whose page is not a LOB header. Callers hold s.mu.
func (s *LOBStore) load(id int64) (*lobMeta, error) {
	if id < 0 || id >= int64(storage.InvalidPage) {
		return nil, fmt.Errorf("loblib: no LOB with locator %d", id)
	}
	m := &lobMeta{}
	magic := lobHeaderMagic
	for cur := storage.PageID(id); cur != storage.InvalidPage; magic = lobOverflowMagic {
		if slices.Contains(m.chain, cur) {
			return nil, fmt.Errorf("loblib: LOB %d: chain loops at page %d", id, cur)
		}
		pg, err := s.pager.Fetch(cur)
		if err != nil {
			return nil, fmt.Errorf("loblib: no LOB with locator %d: %w", id, err)
		}
		if !bytes.Equal(pg.Data[0:4], magic[:]) {
			s.pager.Unpin(pg, false)
			return nil, fmt.Errorf("loblib: no LOB with locator %d (page %d is not a LOB page)", id, cur)
		}
		if len(m.chain) == 0 {
			m.length = int64(binary.BigEndian.Uint64(pg.Data[8:16]))
		}
		for i := 0; i < lobSlots && len(m.pages) < pagesFor(m.length); i++ {
			m.pages = append(m.pages, storage.PageID(binary.BigEndian.Uint32(pg.Data[lobHeaderBytes+4*i:])))
		}
		m.chain = append(m.chain, cur)
		cur = storage.PageID(binary.BigEndian.Uint32(pg.Data[4:8]))
		s.pager.Unpin(pg, false)
	}
	if m.length < 0 || len(m.pages) != pagesFor(m.length) {
		return nil, fmt.Errorf("loblib: LOB %d: length %d does not match its %d listed pages", id, m.length, len(m.pages))
	}
	return m, nil
}

// save writes m's length, and its data page ids from slot from on, back
// to the chain, adding overflow pages when the list has outgrown it.
// Callers hold s.mu.
func (s *LOBStore) save(m *lobMeta, from int) error {
	for c := 0; c == 0 || c*lobSlots < len(m.pages); c++ {
		if c == len(m.chain) {
			pg, err := s.pager.NewPage()
			if err != nil {
				return err
			}
			copy(pg.Data[0:4], lobOverflowMagic[:])
			binary.BigEndian.PutUint32(pg.Data[4:8], uint32(storage.InvalidPage))
			m.chain = append(m.chain, pg.ID)
			s.pager.Unpin(pg, true)
			prev, err := s.pager.Fetch(m.chain[c-1])
			if err != nil {
				return err
			}
			s.pager.WillWrite(prev)
			binary.BigEndian.PutUint32(prev.Data[4:8], uint32(pg.ID))
			s.pager.Unpin(prev, true)
		}
		lo, hi := max(from, c*lobSlots), min(len(m.pages), (c+1)*lobSlots)
		if c > 0 && lo >= hi {
			continue
		}
		pg, err := s.pager.Fetch(m.chain[c])
		if err != nil {
			return err
		}
		s.pager.WillWrite(pg)
		if c == 0 {
			binary.BigEndian.PutUint64(pg.Data[8:16], uint64(m.length))
		}
		for i := lo; i < hi; i++ {
			binary.BigEndian.PutUint32(pg.Data[lobHeaderBytes+4*(i-c*lobSlots):], uint32(m.pages[i]))
		}
		s.pager.Unpin(pg, true)
	}
	return nil
}

// grow extends m to size bytes with fresh zeroed pages. Callers hold s.mu.
func (s *LOBStore) grow(m *lobMeta, size int64) error {
	from := len(m.pages)
	for len(m.pages) < pagesFor(size) {
		pg, err := s.pager.NewPage()
		if err != nil {
			return err
		}
		s.pager.Unpin(pg, true)
		m.pages = append(m.pages, pg.ID)
	}
	m.length = size
	return s.save(m, from)
}

// shrink cuts m to size bytes, zeroing the cut-off tail of its last page,
// and returns the data pages it no longer lists without freeing them.
// Callers hold s.mu.
func (s *LOBStore) shrink(m *lobMeta, size int64) ([]storage.PageID, error) {
	keep := pagesFor(size)
	if size%storage.PageSize != 0 {
		pg, err := s.pager.Fetch(m.pages[keep-1])
		if err != nil {
			return nil, err
		}
		s.pager.WillWrite(pg)
		clear(pg.Data[size%storage.PageSize:])
		s.pager.Unpin(pg, true)
	}
	dropped := slices.Clone(m.pages[keep:])
	m.pages, m.length = m.pages[:keep], size
	return dropped, s.save(m, keep)
}

// Create allocates an empty LOB and returns its locator: the id of its
// header page.
func (s *LOBStore) Create() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.pager.NewPage()
	if err != nil {
		return 0, err
	}
	copy(pg.Data[0:4], lobHeaderMagic[:])
	binary.BigEndian.PutUint32(pg.Data[4:8], uint32(storage.InvalidPage))
	s.pager.Unpin(pg, true)
	return int64(pg.ID), nil
}

// Open returns a handle on the LOB with the given locator.
func (s *LOBStore) Open(id int64) (Blob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.load(id); err != nil {
		return nil, err
	}
	return &lobHandle{store: s, id: id}, nil
}

// Delete frees the LOB's data pages and its header chain.
func (s *LOBStore) Delete(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.load(id)
	if err != nil {
		return err
	}
	for _, pg := range append(m.pages, m.chain...) {
		s.pager.Free(pg)
	}
	return nil
}

// Shrink cuts the LOB to size bytes like Truncate, but hands the data
// pages it drops to the caller instead of freeing them. A transaction
// frees them only once the header that no longer lists them has
// committed: until then the committed header still does, and a page
// another writer reused in the meantime would corrupt it. Reattach
// undoes a Shrink.
func (s *LOBStore) Shrink(id, size int64) ([]storage.PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.load(id)
	if err != nil {
		return nil, err
	}
	if size < 0 || size > m.length {
		return nil, fmt.Errorf("loblib: shrink of LOB %d from %d to %d bytes", id, m.length, size)
	}
	return s.shrink(m, size)
}

// Reattach lists pages that Shrink dropped at the end of the LOB again
// and restores its length. The tail of the previously last page stays
// zero; the caller restores those bytes.
func (s *LOBStore) Reattach(id int64, pages []storage.PageID, length int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.load(id)
	if err != nil {
		return err
	}
	from := len(m.pages)
	m.pages, m.length = append(m.pages, pages...), length
	if len(m.pages) != pagesFor(length) {
		return fmt.Errorf("loblib: reattach of %d pages to LOB %d does not give %d bytes", len(pages), id, length)
	}
	return s.save(m, from)
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

type lobHandle struct {
	store *LOBStore
	id    int64
}

func (h *lobHandle) Length() (int64, error) {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	m, err := h.store.load(h.id)
	if err != nil {
		return 0, err
	}
	return m.length, nil
}

func (h *lobHandle) Truncate(size int64) error {
	s := h.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("loblib: negative truncate size")
	}
	m, err := s.load(h.id)
	if err != nil {
		return err
	}
	if size >= m.length {
		return s.grow(m, size)
	}
	dropped, err := s.shrink(m, size)
	for _, pg := range dropped {
		s.pager.Free(pg)
	}
	return err
}

func (h *lobHandle) ReadAt(p []byte, off int64) (int, error) {
	s := h.store
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ReadOps++
	if off < 0 {
		return 0, fmt.Errorf("loblib: negative offset")
	}
	m, err := s.load(h.id)
	if err != nil {
		return 0, err
	}
	if off >= m.length {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && off < m.length {
		inPage := int(off % storage.PageSize)
		pg, err := s.pager.Fetch(m.pages[off/storage.PageSize])
		if err != nil {
			return n, err
		}
		avail := storage.PageSize - inPage
		if rem := m.length - off; int64(avail) > rem {
			avail = int(rem)
		}
		c := copy(p[n:], pg.Data[inPage:inPage+avail])
		s.pager.Unpin(pg, false)
		n += c
		off += int64(c)
	}
	s.stats.BytesRead += int64(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *lobHandle) WriteAt(p []byte, off int64) (int, error) {
	s := h.store
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.WriteOps++
	s.stats.BytesWritten += int64(len(p))
	if off < 0 {
		return 0, fmt.Errorf("loblib: negative offset")
	}
	m, err := s.load(h.id)
	if err != nil {
		return 0, err
	}
	if end := off + int64(len(p)); end > m.length {
		if err := s.grow(m, end); err != nil {
			return 0, err
		}
	}
	n := 0
	for n < len(p) {
		pg, err := s.pager.Fetch(m.pages[off/storage.PageSize])
		if err != nil {
			return n, err
		}
		s.pager.WillWrite(pg)
		c := copy(pg.Data[off%storage.PageSize:], p[n:])
		s.pager.Unpin(pg, true)
		n += c
		off += int64(c)
	}
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
