// Package storage implements the engine's page store: a pager with a
// buffer pool over a memory- or file-backed page space, and slotted-page
// heap tables with stable row identifiers (RIDs).
//
// All persistent structures (heaps, B+-trees, index-organized tables, LOB
// chunks) allocate pages from one shared pager, so buffer-pool statistics
// account for every logical I/O in the system. That is what lets the
// benchmark harness reproduce the paper's "reduced I/O because of no
// temporary result table" claim quantitatively.
package storage

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 8192

// PageID identifies a page within the page space. InvalidPage (the zero
// value is valid; we reserve the all-ones value) marks "no page".
type PageID uint32

// InvalidPage is the nil page id used to terminate page chains.
const InvalidPage PageID = 0xFFFFFFFF

// Backend is the raw page space underneath the buffer pool.
type Backend interface {
	// ReadPage fills buf (len PageSize) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the page contents.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the page space by one page and returns its id.
	Allocate() (PageID, error)
	// NumPages reports the current size of the page space in pages.
	NumPages() PageID
	// Sync flushes the backend to durable storage where applicable.
	Sync() error
	// Close releases backend resources.
	Close() error
}

// MemBackend is an in-memory page space.
type MemBackend struct {
	mu    sync.Mutex
	pages [][]byte
}

// NewMemBackend returns an empty in-memory page space.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// ReadPage implements Backend.
func (m *MemBackend) ReadPage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements Backend.
func (m *MemBackend) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(m.pages[id], buf)
	return nil
}

// Allocate implements Backend.
func (m *MemBackend) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := PageID(len(m.pages))
	if id == InvalidPage {
		return 0, fmt.Errorf("storage: page space exhausted")
	}
	m.pages = append(m.pages, make([]byte, PageSize))
	return id, nil
}

// NumPages implements Backend.
func (m *MemBackend) NumPages() PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return PageID(len(m.pages))
}

// Sync implements Backend.
func (m *MemBackend) Sync() error { return nil }

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }

// FileBackend is a page space stored in a single operating-system file,
// page i at byte offset i*PageSize. Reads and writes are positional and
// take no backend lock, so misses on different pool shards reach the
// file concurrently; the pool's shard latch already orders I/O on any
// one page. mu serializes only Allocate, which publishes the grown size
// through n after the new page's zeroes are written.
type FileBackend struct {
	mu sync.Mutex
	f  *os.File
	n  atomic.Uint32 // pages in the file
}

// OpenFileBackend opens (creating if needed) a file-backed page space.
func OpenFileBackend(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	if st.Size()%PageSize != 0 {
		return nil, errors.Join(
			fmt.Errorf("storage: %s has size %d, not a multiple of the page size", path, st.Size()),
			f.Close())
	}
	fb := &FileBackend{f: f}
	fb.n.Store(uint32(st.Size() / PageSize))
	return fb, nil
}

// ReadPage implements Backend.
func (fb *FileBackend) ReadPage(id PageID, buf []byte) error {
	if id >= fb.NumPages() {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	_, err := fb.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements Backend.
func (fb *FileBackend) WritePage(id PageID, buf []byte) error {
	if id >= fb.NumPages() {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	_, err := fb.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// Allocate implements Backend.
func (fb *FileBackend) Allocate() (PageID, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	id := fb.NumPages()
	if id == InvalidPage {
		return 0, fmt.Errorf("storage: page space exhausted")
	}
	var zero [PageSize]byte
	if _, err := fb.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return 0, err
	}
	fb.n.Store(uint32(id) + 1)
	return id, nil
}

// NumPages implements Backend.
func (fb *FileBackend) NumPages() PageID { return PageID(fb.n.Load()) }

// Sync implements Backend.
func (fb *FileBackend) Sync() error { return fb.f.Sync() }

// Close implements Backend.
func (fb *FileBackend) Close() error { return fb.f.Close() }

// Stats counts logical and physical page traffic through the pager and,
// since the WAL became part of the durability path, write-ahead-log
// traffic as well: one snapshot covers every byte the storage layer
// moves. Pager snapshots fill the page fields; WAL.AddStats folds the
// log fields in (the engine's PagerStats does both).
type Stats struct {
	Fetches   int64 // logical page requests
	Hits      int64 // served from the buffer pool
	Misses    int64 // required a backend read
	Writes    int64 // dirty pages written back to the backend
	Evictions int64 // pages evicted to make room
	Allocs    int64 // new pages allocated

	WALRecords int64 // redo records appended (pages + commits)
	WALPages   int64 // page records appended, full image or delta
	WALCommits int64 // commit records appended
	WALBytes   int64 // bytes appended to the log
	WALSyncs   int64 // log fsyncs
	// WALFullPages counts the page records that were full images (first
	// touch since a checkpoint, fresh pages, oversized deltas);
	// WALDeltaBytes is the log bytes the remaining WALPages-WALFullPages
	// delta records took, headers included.
	WALFullPages  int64
	WALDeltaBytes int64
	// WALGroupedCommits counts commit records made durable through the
	// group-commit protocol (SyncShared epochs); WALGroupedCommits /
	// WALSyncs is the commits-per-fsync ratio the W1 bench asserts on.
	WALGroupedCommits int64

	// LockWaits / LockWaitNanos count contended acquisitions of pager
	// shard latches and the total time spent blocked on them. The pool is
	// sharded by page-id hash precisely so parallel scans stop convoying
	// here; these counters (and the per-shard WaitPagerLatch events) are
	// the before/after evidence. Uncontended acquisitions cost nothing
	// and count nothing.
	LockWaits     int64
	LockWaitNanos int64
}

// HitRate returns the buffer-pool hit fraction (0 with no fetches).
func (s Stats) HitRate() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Fetches)
}

// ShardStats is one buffer-pool shard's slice of the pool counters,
// exposed so a hot shard (hash skew, one scorching page chain) is
// visible in \stats instead of averaged away.
type ShardStats struct {
	Fetches   int64
	Hits      int64
	Misses    int64
	Writes    int64
	Evictions int64
}

// HitRate returns the shard's buffer-pool hit fraction (0 with no
// fetches).
func (s ShardStats) HitRate() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Fetches)
}

// Page is a pinned buffer-pool frame. Data is the full page image; callers
// must mark the frame dirty through Pager.Unpin when they modify it.
type Page struct {
	ID   PageID
	Data []byte

	// pins is the pin count. Atomic so pinning a resident frame (Fetch
	// hit, under the shard's read lock) and releasing a clean pin (no
	// shard lock at all) never serialize on the shard latch; the clock
	// evictor reads it under the shard's write lock, which excludes both
	// paths mid-flight.
	pins atomic.Int32
	// ref is the clock-eviction reference bit, set on every pin/unpin
	// and cleared by the sweeping hand (second-chance).
	ref atomic.Bool
	// slot is the frame's index in its shard's clock slice (swap-remove
	// bookkeeping). Guarded by the shard's write lock.
	slot int
	// dirty/logged/owner are guarded by the owning shard's write lock.
	dirty bool
	// logged records that the log's account of the page matches the
	// current dirty image; a later modification clears it so the page is
	// re-logged at the next commit.
	logged bool
	// imaged records that a full image of the page was logged since the
	// last checkpoint while this frame stayed resident, so later commits
	// may log byte-range deltas instead. FlushAll clears it, and a frame
	// fetched afresh starts without it: every page a checkpoint writes
	// therefore has a full image earlier in the same log.
	imaged bool
	// base, when non-nil, is a copy of the page as the log last recorded
	// it, captured by WillWrite before the first modification since. The
	// commit sweep logs the diff against it and releases it. It is never
	// taken from an unlogged frame: a rolled-back transaction leaves its
	// frames logically restored but not bytewise, and a base copied from
	// one would make replay apply a delta to bytes the log never held.
	base []byte
	// wantBase mirrors imaged && logged && base == nil — "the next write
	// needs a base captured first" — so WillWrite's common no-op case is
	// one atomic load. Written under the shard's write lock.
	wantBase atomic.Bool
	// owner is the id of the uncommitted transaction whose modifications
	// the current dirty image carries, 0 for none. It is set when a
	// mutation window (PushWriter) dirties the frame and cleared when the
	// owning transaction's commit sweep logs it or ReleaseOwner runs at
	// transaction end. A frame with owner 0 that is still dirty is an
	// "orphan": its content is committed-equivalent (system writes, or a
	// rolled-back transaction's restored image), so any commit may sweep
	// it. The per-frame owner is what lets the commit sweep log exactly
	// the committing transaction's write set while other transactions
	// have modifications in flight.
	owner int64
}

// ErrWriteConflict is reported (via TakeConflict) when a mutation window
// dirties a frame that another uncommitted transaction already owns.
// First dirtier wins: the second transaction's statement must abort and
// roll back, and may be retried after the owner finishes.
var ErrWriteConflict = errors.New("storage: page write conflict")

// writerCtx is the current mutation window's attribution: frames dirtied
// while it is installed belong to owner (0 = system writes, which stay
// orphans); undo marks committed-equivalent restores that must not
// change ownership or record conflicts. One atomic pointer replaces the
// old under-mutex pair: the engine serializes mutation windows, so a
// plain swap in PushWriter is enough, and the dirty-unpin path reads it
// without extra locking.
type writerCtx struct {
	owner int64
	undo  bool
}

// pagerShard is one hash slice of the buffer pool: its own frame table,
// its own clock, its own latch. The RWMutex split is what the fetch path
// depends on: a hit takes the latch shared (frame lookup + atomic pin),
// so resident-page traffic from parallel scan workers proceeds
// concurrently; only misses, dirty unpins, eviction, and the sweeps take
// it exclusively.
type pagerShard struct {
	mu     sync.RWMutex
	frames map[PageID]*Page
	clock  []*Page // every resident frame; hand sweeps for victims
	hand   int

	// sets lists, per owner, the shard's frames that may need logging:
	// sets[t] holds every frame owned by uncommitted transaction t, and
	// sets[0] every unlogged orphan plus every frame holding a base. The
	// commit sweep, ReleaseOwner and the owned-page queries walk these
	// instead of the whole pool. Entries are appended when a frame enters
	// the state and never removed singly: readers revalidate each entry
	// against the frame's current state (resident, dirty, unlogged, owner)
	// and a sweep empties the lists it consumed. Maintained only under
	// no-steal — in a steal pool dirty frames get evicted, nothing sweeps,
	// and the lists would pin dead frames. Guarded by mu.
	sets map[int64][]*Page

	// Per-shard I/O counters (atomic, incremented while holding mu in
	// either mode; Stats write-locks every shard, which drains in-flight
	// holders and makes the cross-field snapshot a consistent cut).
	fetches   obs.Counter
	hits      obs.Counter
	misses    obs.Counter
	writes    obs.Counter
	evictions obs.Counter
}

// Pager is the buffer pool: it caches up to capacity page frames over a
// Backend, sharded by page-id hash. All methods are safe for concurrent
// use.
type Pager struct {
	backend  Backend
	capacity int
	shards   []pagerShard
	shardCap int // per-shard frame target (capacity / len(shards), min 1)

	// allocMu guards the free list and backend page allocation. It never
	// nests with a shard latch: NewPage allocates first, then inserts;
	// Free removes first, then releases the id.
	allocMu  sync.Mutex
	freeList []PageID // pages released by dropped objects, reusable

	// Pool-level counters, outside any shard (eventually consistent with
	// the per-shard set, which is fine — no invariant ties them).
	allocs        obs.Counter
	lockWaits     obs.Counter
	lockWaitNanos obs.Counter

	// dirtyPages tracks resident dirty frames pool-wide: the background
	// checkpointer's watermark. Maintained at every clean<->dirty
	// transition under the owning shard's write lock.
	dirtyPages atomic.Int64

	// noSteal, set when a WAL governs the backend, forbids evicting
	// dirty frames: uncommitted changes must never reach the page file,
	// or a crash would surface them with no undo log to remove them.
	// Dirty frames then stay resident until FlushAll (checkpoint).
	noSteal atomic.Bool

	// writer is the current mutation window (see writerCtx). Never nil.
	writer atomic.Pointer[writerCtx]

	// conflictMu guards conflict, the first cross-transaction dirtying
	// observed in the current window; TakeConflict consumes it at
	// statement end. Always acquired inside a shard latch (declared in
	// the engine's lock-order directives).
	conflictMu sync.Mutex
	conflict   error

	// waits, when set, receives contended-latch intervals as
	// WaitPagerLatch events (aux "shard=N") and pool-growth events as
	// WaitCheckpointBackpressure. Written once at wiring time
	// (SetWaitStats); nil is safe.
	waits *obs.WaitStats
	// pressure, when set, is called (without any pager lock beyond the
	// growing shard's) each time a shard must grow past its frame target
	// because every unpinned frame is dirty under no-steal — the signal
	// that only a checkpoint can shrink the pool. It must not block and
	// must not re-enter the pager.
	pressure atomic.Pointer[func()]
	// auxes holds the preformatted "shard=N" flight payloads so the
	// contended-latch path allocates nothing.
	auxes []string
}

// DefaultPagerShards is the buffer-pool shard count used when the caller
// does not choose one. Deterministic (not GOMAXPROCS-derived) so fault
// injection op counts and eviction order reproduce across machines.
const DefaultPagerShards = 8

// NewPager creates a buffer pool with the given frame capacity (minimum
// 8) over the backend, with DefaultPagerShards shards.
func NewPager(b Backend, capacity int) *Pager {
	return NewPagerShards(b, capacity, 0)
}

// NewPagerShards is NewPager with an explicit shard count (<= 0 means
// DefaultPagerShards). The capacity is a pool-wide frame target split
// evenly across shards; a shard whose resident set is entirely pinned or
// dirty-under-no-steal grows past its share rather than failing.
func NewPagerShards(b Backend, capacity, shards int) *Pager {
	if capacity < 8 {
		capacity = 8
	}
	if shards <= 0 {
		shards = DefaultPagerShards
	}
	shardCap := capacity / shards
	if shardCap < 1 {
		shardCap = 1
	}
	p := &Pager{
		backend:  b,
		capacity: capacity,
		shards:   make([]pagerShard, shards),
		shardCap: shardCap,
		auxes:    make([]string, shards),
	}
	for i := range p.shards {
		p.shards[i].frames = make(map[PageID]*Page)
		p.shards[i].sets = make(map[int64][]*Page)
		p.auxes[i] = fmt.Sprintf("shard=%d", i)
	}
	p.writer.Store(&writerCtx{})
	return p
}

// shardIndex hashes a page id onto a shard (Fibonacci multiplicative
// hash — neighbouring ids land on different shards, so a sequential heap
// scan spreads instead of convoying).
func (p *Pager) shardIndex(id PageID) int {
	return int((uint32(id) * 0x9E3779B1) % uint32(len(p.shards)))
}

// lockShard acquires a shard latch exclusively on a hot path, counting
// contended acquisitions and the time spent blocked. The TryLock fast
// path keeps the uncontended cost at a single atomic CAS, so serial
// workloads pay nothing for the gauge.
func (p *Pager) lockShard(i int) *pagerShard {
	sh := &p.shards[i]
	if sh.mu.TryLock() {
		return sh
	}
	start := time.Now()
	sh.mu.Lock()
	n := time.Since(start).Nanoseconds()
	p.waits.RecordAux(obs.WaitPagerLatch, n, p.auxes[i])
	p.lockWaits.Inc()
	p.lockWaitNanos.Add(n)
	return sh
}

// rlockShard is lockShard for the shared (fetch-hit) path.
func (p *Pager) rlockShard(i int) *pagerShard {
	sh := &p.shards[i]
	if sh.mu.TryRLock() {
		return sh
	}
	start := time.Now()
	sh.mu.RLock()
	n := time.Since(start).Nanoseconds()
	p.waits.RecordAux(obs.WaitPagerLatch, n, p.auxes[i])
	p.lockWaits.Inc()
	p.lockWaitNanos.Add(n)
	return sh
}

// SetWaitStats routes contended-latch waits into the engine wait table.
// Call once at wiring time, before concurrent use.
func (p *Pager) SetWaitStats(w *obs.WaitStats) { p.waits = w }

// SetPressure installs the checkpointer poke called when a shard grows
// because all of its unpinned frames are dirty under no-steal. fn must
// be non-blocking and must not call back into the pager.
func (p *Pager) SetPressure(fn func()) { p.pressure.Store(&fn) }

// NumShards reports the shard count (benchmarks and tests).
func (p *Pager) NumShards() int { return len(p.shards) }

// DirtyCount reports the number of resident dirty frames — the
// background checkpointer's dirty-page watermark input.
func (p *Pager) DirtyCount() int64 { return p.dirtyPages.Load() }

// Stats returns a snapshot of the pager's I/O counters. Every shard is
// write-locked (in index order) while the per-shard counters are read,
// which drains any in-flight fetch mid-increment — the fields form a
// consistent cut, and the invariants build verifies fetches == hits +
// misses on every snapshot.
func (p *Pager) Stats() Stats {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	s := Stats{
		Allocs:        p.allocs.Load(),
		LockWaits:     p.lockWaits.Load(),
		LockWaitNanos: p.lockWaitNanos.Load(),
	}
	for i := range p.shards {
		sh := &p.shards[i]
		s.Fetches += sh.fetches.Load()
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Writes += sh.writes.Load()
		s.Evictions += sh.evictions.Load()
	}
	for i := len(p.shards) - 1; i >= 0; i-- {
		p.shards[i].mu.Unlock()
	}
	if invariantsEnabled && s.Fetches != s.Hits+s.Misses {
		panic(fmt.Sprintf("storage: inconsistent pager stats snapshot: fetches=%d hits=%d misses=%d", s.Fetches, s.Hits, s.Misses))
	}
	return s
}

// ShardStats snapshots the per-shard counters (one entry per shard, in
// shard order) so hit-rate skew across shards is observable. Each shard
// is read under its own latch; the slice is not a cross-shard consistent
// cut, which a skew report does not need.
func (p *Pager) ShardStats() []ShardStats {
	out := make([]ShardStats, len(p.shards))
	for i := range p.shards {
		sh := p.rlockShard(i)
		out[i] = ShardStats{
			Fetches:   sh.fetches.Load(),
			Hits:      sh.hits.Load(),
			Misses:    sh.misses.Load(),
			Writes:    sh.writes.Load(),
			Evictions: sh.evictions.Load(),
		}
		sh.mu.RUnlock()
	}
	return out
}

// Fetch pins the page in the pool, reading it from the backend on a miss.
// The caller must Unpin it when done. The resident path runs under the
// shard's shared latch with an atomic pin — concurrent hits on one shard
// (and on different shards) do not serialize.
func (p *Pager) Fetch(id PageID) (*Page, error) {
	idx := p.shardIndex(id)
	sh := p.rlockShard(idx)
	if pg, ok := sh.frames[id]; ok {
		sh.fetches.Inc()
		sh.hits.Inc()
		pg.pins.Add(1)
		pg.ref.Store(true)
		sh.mu.RUnlock()
		return pg, nil
	}
	sh.mu.RUnlock()

	sh = p.lockShard(idx)
	defer sh.mu.Unlock()
	sh.fetches.Inc()
	if pg, ok := sh.frames[id]; ok {
		// Another goroutine brought it in between our two lockings.
		sh.hits.Inc()
		pg.pins.Add(1)
		pg.ref.Store(true)
		return pg, nil
	}
	sh.misses.Inc()
	buf, err := p.evictIfFullLocked(sh)
	if err != nil {
		return nil, err
	}
	pg := &Page{ID: id, Data: buf}
	pg.pins.Store(1)
	pg.ref.Store(true)
	if err := p.backend.ReadPage(id, pg.Data); err != nil {
		return nil, err
	}
	p.insertLocked(sh, pg)
	return pg, nil
}

// NewPage allocates a fresh zeroed page (reusing freed pages when
// available), pins it, and returns it marked dirty.
func (p *Pager) NewPage() (*Page, error) {
	p.allocMu.Lock()
	var id PageID
	if n := len(p.freeList); n > 0 {
		id = p.freeList[n-1]
		p.freeList = p.freeList[:n-1]
		p.allocMu.Unlock()
	} else {
		var err error
		id, err = p.backend.Allocate()
		p.allocMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	p.allocs.Inc()
	sh := p.lockShard(p.shardIndex(id))
	defer sh.mu.Unlock()
	buf, err := p.evictIfFullLocked(sh)
	if err != nil {
		return nil, err
	}
	clear(buf)
	pg := &Page{ID: id, Data: buf, dirty: true}
	pg.pins.Store(1)
	pg.ref.Store(true)
	if w := p.writer.Load(); !w.undo {
		pg.owner = w.owner
	}
	p.dirtyPages.Add(1)
	p.insertLocked(sh, pg)
	p.trackLocked(sh, pg)
	return pg, nil
}

// Unpin releases one pin; dirty records that the caller modified the page.
// A clean unpin touches no lock at all: the ref bit and pin count are
// atomic, and the frame cannot be evicted concurrently because eviction
// holds the shard latch exclusively and rechecks the pin count there.
func (p *Pager) Unpin(pg *Page, dirty bool) {
	if !dirty {
		pg.ref.Store(true)
		if pg.pins.Add(-1) < 0 {
			panic("storage: page unpinned more times than pinned")
		}
		return
	}
	sh := p.lockShard(p.shardIndex(pg.ID))
	defer sh.mu.Unlock()
	if invariantsEnabled && pg.imaged && pg.base == nil {
		panic(fmt.Sprintf("storage: page %d modified with no base captured: a write path is missing its WillWrite call", pg.ID))
	}
	tracked := pg.dirty && !pg.logged
	if !pg.dirty {
		p.dirtyPages.Add(1)
	}
	pg.dirty = true
	pg.logged = false
	pg.wantBase.Store(false)
	if w := p.writer.Load(); w.owner != 0 && !w.undo {
		switch pg.owner {
		case 0:
			pg.owner = w.owner
			tracked = false
		case w.owner:
			// already ours
		default:
			p.conflictMu.Lock()
			if p.conflict == nil {
				p.conflict = fmt.Errorf("%w: page %d is modified by uncommitted transaction %d", ErrWriteConflict, pg.ID, pg.owner)
			}
			p.conflictMu.Unlock()
		}
	}
	if !tracked {
		p.trackLocked(sh, pg)
	}
	pg.ref.Store(true)
	if pg.pins.Add(-1) < 0 {
		panic("storage: page unpinned more times than pinned")
	}
}

// WillWrite must be called on a pinned page before its bytes are
// modified (and before the dirty Unpin that follows). When the log's
// account of the page matches the frame — a full image logged since the
// checkpoint, nothing changed since the last record — it copies the page
// aside as the base the next commit diffs against; otherwise it does
// nothing. Without the call the commit falls back to a full image (and
// the invariants build panics at the dirty Unpin), so forgetting it
// costs log volume, not correctness.
func (p *Pager) WillWrite(pg *Page) {
	if !pg.wantBase.Load() {
		return
	}
	sh := p.lockShard(p.shardIndex(pg.ID))
	if pg.imaged && pg.logged && pg.base == nil {
		buf := basePool.Get().(*[PageSize]byte)
		copy(buf[:], pg.Data)
		pg.base = buf[:]
		pg.wantBase.Store(false)
		// Listed as an orphan so that some commit releases the base even
		// if this writer never dirties the page.
		sh.sets[0] = append(sh.sets[0], pg)
	}
	sh.mu.Unlock()
}

// basePool recycles base-image buffers: one is live per frame written
// since its last log record, so the pool's working set is the in-flight
// write sets, not the dirty pages.
var basePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

// dropBaseLocked releases the frame's base, if any, and recomputes
// wantBase. Caller holds the shard's write lock.
func (pg *Page) dropBaseLocked() {
	if pg.base != nil {
		basePool.Put((*[PageSize]byte)(pg.base))
		pg.base = nil
	}
	pg.wantBase.Store(pg.imaged && pg.logged)
}

// trackLocked lists an unlogged frame under its owner (see
// pagerShard.sets). Caller holds the shard's write lock.
func (p *Pager) trackLocked(sh *pagerShard, pg *Page) {
	if p.noSteal.Load() {
		sh.sets[pg.owner] = append(sh.sets[pg.owner], pg)
	}
}

// Free returns a page to the allocator for reuse. The page must be
// unpinned; its contents are discarded.
func (p *Pager) Free(id PageID) {
	sh := p.lockShard(p.shardIndex(id))
	if pg, ok := sh.frames[id]; ok {
		if pg.pins.Load() > 0 {
			sh.mu.Unlock()
			panic("storage: freeing a pinned page")
		}
		if pg.dirty {
			p.dirtyPages.Add(-1)
		}
		pg.imaged = false
		pg.dropBaseLocked()
		p.removeLocked(sh, pg)
	}
	sh.mu.Unlock()
	p.allocMu.Lock()
	p.freeList = append(p.freeList, id)
	p.allocMu.Unlock()
}

// SetNoSteal switches the pool to a no-steal eviction policy: dirty
// frames are never written back outside FlushAll. The engine enables it
// when a WAL governs the backend (redo-only logging is correct only if
// uncommitted changes cannot reach the page file). It also turns on
// write-set tracking (pagerShard.sets), which the commit sweep and the
// ownership queries rely on, so it must be set before the first write.
func (p *Pager) SetNoSteal(on bool) { p.noSteal.Store(on) }

// PushWriter opens a mutation window: until the returned restore runs,
// frames dirtied through Unpin/NewPage are attributed to owner (0 =
// system writes, left as orphans). undo marks the window as replaying an
// undo log — restored content is committed-equivalent, so ownership is
// left untouched and cross-transaction dirtying is not a conflict.
// Windows nest (callback sessions, statement-level rollback inside a
// statement); restore reinstates the enclosing window's attribution.
// The engine serializes mutation windows, so at most one owner is
// current at a time — which is what makes the plain pointer swap safe.
func (p *Pager) PushWriter(owner int64, undo bool) (restore func()) {
	prev := p.writer.Swap(&writerCtx{owner: owner, undo: undo})
	return func() { p.writer.Store(prev) }
}

// TakeConflict returns and clears the first cross-transaction write
// conflict recorded since the last call (nil when the window's writes
// were clean). The statement executor consults it before committing:
// a non-nil result means the statement dirtied another uncommitted
// transaction's frame and must roll back.
func (p *Pager) TakeConflict() error {
	p.conflictMu.Lock()
	defer p.conflictMu.Unlock()
	err := p.conflict
	p.conflict = nil
	return err
}

// ReleaseOwner orphans every frame owned by the transaction: called when
// it finishes (commit or rollback). After a commit the sweep has already
// logged and disowned its frames, so this is a safety net; after a
// rollback the undo log has restored committed-equivalent content, so
// the frames become orphans sweepable by any later commit — bases
// intact, since the log still holds what it held before the transaction.
func (p *Pager) ReleaseOwner(owner int64) {
	if owner == 0 {
		return
	}
	for i := range p.shards {
		sh := p.lockShard(i)
		if set := sh.sets[owner]; len(set) > 0 {
			for _, pg := range set {
				if pg.owner == owner {
					pg.owner = 0
				}
			}
			sh.sets[0] = append(sh.sets[0], set...)
		}
		delete(sh.sets, owner)
		sh.mu.Unlock()
	}
}

// ownedLocked appends the ids of the resident frames in set that owner
// currently owns. Caller holds the shard latch.
func (sh *pagerShard) ownedLocked(ids []PageID, owner int64, set []*Page) []PageID {
	for _, pg := range set {
		if pg.owner == owner && sh.frames[pg.ID] == pg {
			ids = append(ids, pg.ID)
		}
	}
	return ids
}

// sortedUnique sorts ids and drops repeats (a frame can be listed more
// than once).
func sortedUnique(ids []PageID) []PageID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// PagesOwnedBy returns the sorted ids of frames the transaction owns —
// its current write set (tests and invariants).
func (p *Pager) PagesOwnedBy(owner int64) []PageID {
	if owner == 0 {
		return nil
	}
	var ids []PageID
	for i := range p.shards {
		sh := p.rlockShard(i)
		ids = sh.ownedLocked(ids, owner, sh.sets[owner])
		sh.mu.RUnlock()
	}
	return sortedUnique(ids)
}

// OwnedPages returns the sorted ids of frames owned by any uncommitted
// transaction. Checkpoints require it to be empty: every owner must have
// committed or rolled back before dirty pages may reach the page file.
func (p *Pager) OwnedPages() []PageID {
	var ids []PageID
	for i := range p.shards {
		sh := p.rlockShard(i)
		for owner, set := range sh.sets {
			if owner != 0 {
				ids = sh.ownedLocked(ids, owner, set)
			}
		}
		sh.mu.RUnlock()
	}
	return sortedUnique(ids)
}

// AppendUnloggedFor stages in w one record for every unlogged dirty frame
// in the committing transaction's write set — frames it owns, plus
// orphans (owner 0), whose content is committed-equivalent by
// construction (superblock initialization, dictionary-chain writes,
// rolled-back transactions' restored images). A frame's first record
// since the last checkpoint is its full image; after that, the byte
// ranges that differ from its base — the page as the log last recorded
// it — or nothing at all when a rollback restored it byte for byte.
// Swept frames are marked logged and disowned and their bases released.
// Frames owned by other uncommitted transactions are skipped: that is
// the per-transaction write-set contract that lets concurrent writers
// commit without logging each other's in-flight changes. Returns how
// many records were staged; they reach the sink with the commit record
// (WAL.AppendCommit). After an error the write-set lists are incomplete
// and the caller must stop logging (the engine poisons the WAL).
//
// The sweep runs inside the committing transaction's mutation window, so
// no frame's dirty/logged/owner state changes under it; the two-phase
// shape (collect across shards, then log in one globally sorted pass)
// keeps the append order — and therefore every fault-injection op count
// — independent of the shard layout.
func (p *Pager) AppendUnloggedFor(w *WAL, owner int64) (int, error) {
	if !p.noSteal.Load() {
		return 0, errors.New("storage: commit sweep over a steal pool (SetNoSteal was never called)")
	}
	var set []*Page
	for i := range p.shards {
		sh := p.lockShard(i)
		set = append(set, sh.sets[0]...)
		clear(sh.sets[0]) // drop the pointers, keep the capacity
		sh.sets[0] = sh.sets[0][:0]
		if owner != 0 {
			set = append(set, sh.sets[owner]...)
			delete(sh.sets, owner)
		}
		sh.mu.Unlock()
	}
	// Deterministic order makes crash points reproducible.
	slices.SortFunc(set, func(a, b *Page) int { return cmp.Compare(a.ID, b.ID) })
	staged := 0
	for _, pg := range set {
		sh := p.lockShard(p.shardIndex(pg.ID))
		ok, err := p.logFrameLocked(sh, w, pg, owner)
		sh.mu.Unlock()
		if err != nil {
			return 0, err
		}
		if ok {
			staged++
		}
	}
	return staged, nil
}

// logFrameLocked is one step of the commit sweep: revalidate a listed
// frame and stage its record. Caller holds the frame's shard latch.
func (p *Pager) logFrameLocked(sh *pagerShard, w *WAL, pg *Page, owner int64) (staged bool, err error) {
	switch {
	case sh.frames[pg.ID] != pg:
		return false, nil // freed since it was listed
	case pg.owner != owner && pg.owner != 0:
		return false, nil // another transaction took the orphan; it is on that list now
	case !pg.dirty || pg.logged:
		// Listed by WillWrite and never dirtied, flushed by a checkpoint,
		// or listed twice and already swept.
		if invariantsEnabled && pg.base != nil && !bytes.Equal(pg.base, pg.Data) {
			panic(fmt.Sprintf("storage: page %d changed after WillWrite but was unpinned clean", pg.ID))
		}
		pg.dropBaseLocked()
		return false, nil
	}
	var base []byte
	if pg.imaged {
		base = pg.base // nil (a write path skipped WillWrite) falls back to a full image
	}
	staged, full, err := w.stagePage(pg.ID, base, pg.Data)
	if err != nil {
		return false, err
	}
	if full {
		pg.imaged = true
	}
	pg.logged = true
	pg.owner = 0
	pg.dropBaseLocked()
	return staged, nil
}

// FlushAll writes every dirty frame back to the backend and syncs it.
// Callers guarantee quiescence of writers (Checkpoint holds admission
// exclusively), so the two-phase sweep cannot race a new dirtying of the
// frames it collected.
func (p *Pager) FlushAll() error {
	// Deterministic order makes crash points in fault-injecting backends
	// reproducible run to run.
	var ids []PageID
	for i := range p.shards {
		sh := p.rlockShard(i)
		for id, pg := range sh.frames {
			if pg.dirty {
				ids = append(ids, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sh := p.lockShard(p.shardIndex(id))
		pg, ok := sh.frames[id]
		if !ok || !pg.dirty {
			sh.mu.Unlock()
			continue
		}
		if invariantsEnabled && p.noSteal.Load() && pg.owner != 0 {
			sh.mu.Unlock()
			panic(fmt.Sprintf("storage: flushing page %d owned by uncommitted transaction %d", id, pg.owner))
		}
		err := p.backend.WritePage(pg.ID, pg.Data)
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		sh.writes.Inc()
		pg.dirty = false
		pg.logged = false
		pg.owner = 0
		// The checkpoint this flush belongs to truncates the log: the
		// page's next record must be a full image again.
		pg.imaged = false
		pg.dropBaseLocked()
		p.dirtyPages.Add(-1)
		sh.mu.Unlock()
	}
	return p.backend.Sync()
}

// Close flushes and closes the underlying backend. A flush failure does
// not skip the backend close; the errors are folded together.
func (p *Pager) Close() error {
	if invariantsEnabled {
		if leaked := p.PinnedPages(); len(leaked) > 0 {
			panic(fmt.Sprintf("storage: pager closed with %d pinned page(s) %v: pin leak", len(leaked), leaked))
		}
	}
	return errors.Join(p.FlushAll(), p.backend.Close())
}

// CloseDiscard closes the backend without flushing the buffer pool. The
// engine uses it when a checkpoint could not run safely (an open write
// transaction, or a broken WAL): under redo-only logging, flushing would
// push pages with no undo to the page file, so the pool is dropped and
// the next Open recovers committed state from the log instead.
func (p *Pager) CloseDiscard() error {
	return p.backend.Close()
}

// PinnedPages returns the ids of frames whose pin count is non-zero,
// sorted. A non-empty result at quiesce points (statement boundaries,
// Close) means some code path leaked a pin; the invariants build panics
// on it at Close.
func (p *Pager) PinnedPages() []PageID {
	var ids []PageID
	for i := range p.shards {
		sh := p.rlockShard(i)
		for id, pg := range sh.frames {
			if pg.pins.Load() > 0 {
				ids = append(ids, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// insertLocked adds a frame to the shard's table and clock. Caller holds
// sh.mu exclusively.
func (p *Pager) insertLocked(sh *pagerShard, pg *Page) {
	pg.slot = len(sh.clock)
	sh.clock = append(sh.clock, pg)
	sh.frames[pg.ID] = pg
}

// removeLocked deletes a frame from the shard's table and clock
// (swap-remove; O(1)). Caller holds sh.mu exclusively.
func (p *Pager) removeLocked(sh *pagerShard, pg *Page) {
	last := len(sh.clock) - 1
	moved := sh.clock[last]
	sh.clock[pg.slot] = moved
	moved.slot = pg.slot
	sh.clock[last] = nil
	sh.clock = sh.clock[:last]
	if sh.hand > last {
		sh.hand = 0
	}
	delete(sh.frames, pg.ID)
}

// evictIfFullLocked makes room for one more frame in the shard using
// clock (second-chance) eviction: the hand sweeps the resident set,
// clearing reference bits and skipping pinned frames; the first
// unreferenced, unpinned (and, under no-steal, clean) frame is the
// victim, written back if dirty. Caller holds sh.mu exclusively.
//
// It returns the PageSize buffer the caller's new frame should use: the
// victim's, so a full shard's miss allocates no memory and frame memory
// stays exactly resident frames × PageSize, or a fresh one while the
// shard is below its target or must grow. The victim's Page keeps no
// reference to the buffer (Data is nil), so a use after unpin panics
// instead of reading the next page's bytes.
//
// When no victim exists the shard grows past its target instead of
// failing. If the blocker is dirt — unpinned frames that no-steal
// forbids stealing — growth is not silent: a CheckpointBackpressure
// wait is recorded and the checkpointer is poked, because only a
// checkpoint can clean those frames and shrink the pool again. (This
// replaces the old single-pool pager's unbounded "grows until the next
// FlushAll" note.)
func (p *Pager) evictIfFullLocked(sh *pagerShard) ([]byte, error) {
	if len(sh.frames) < p.shardCap {
		return make([]byte, PageSize), nil
	}
	noSteal := p.noSteal.Load()
	dirtyBlocked := false
	for scanned := 2 * len(sh.clock); scanned > 0; scanned-- {
		if sh.hand >= len(sh.clock) {
			sh.hand = 0
		}
		pg := sh.clock[sh.hand]
		if pg.pins.Load() > 0 {
			sh.hand++
			continue
		}
		if noSteal && pg.dirty {
			dirtyBlocked = true
			sh.hand++
			continue
		}
		if pg.ref.Swap(false) {
			sh.hand++
			continue // second chance
		}
		if pg.dirty {
			if err := p.backend.WritePage(pg.ID, pg.Data); err != nil {
				return nil, err
			}
			sh.writes.Inc()
			p.dirtyPages.Add(-1)
		}
		p.removeLocked(sh, pg)
		sh.evictions.Inc()
		buf := pg.Data
		pg.Data = nil
		return buf, nil
	}
	if dirtyBlocked {
		// All-dirty shard under no-steal: grow, but loudly — the
		// checkpointer is the only path back under the target.
		p.waits.Record(obs.WaitCheckpointBackpressure, 0)
		if fn := p.pressure.Load(); fn != nil {
			(*fn)()
		}
	}
	return make([]byte, PageSize), nil // all pinned (or all dirty under no-steal); allow growth
}
