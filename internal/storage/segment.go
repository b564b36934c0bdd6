package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Segmented WAL storage. The log the WAL writer sees is still one
// logical append-only byte stream — the record framing, replay, and
// torn-tail repair in wal.go are unchanged — but underneath, the stream
// is striped across fixed-size segments: logical bytes
// [i*segCap, (i+1)*segCap) live in the payload of chain segment i.
// Records spanning a boundary simply continue in the next segment.
//
// Each segment starts with a small header naming the chain it belongs
// to: a magic number, the chain epoch, the segment's index within the
// chain, and a CRC over the three. Recovery selects the chain with the
// highest epoch whose index-0 segment is present and readable, walks it
// while indexes are contiguous and every non-final segment is full, and
// concatenates the payloads — everything else on disk is a free segment
// awaiting recycling.
//
// Epochs are what make checkpoint truncation cheap: Reset does not
// delete or rewrite the old log, it durably activates an empty index-0
// segment with epoch+1 (one header write + one fsync), which supersedes
// the old chain at selection time. The old chain's segments go on the
// free list and are recycled — header rewritten in place — as the new
// chain grows, so a steady-state workload reuses the same files forever
// instead of growing one.
//
// Crash-safety of recycling rests on two ordering rules:
//
//   - Reset reuses the *old chain's index-0 slot first* (when there is
//     one). If the header rewrite tears, the old chain has lost its
//     head and no chain is selectable — recovery sees an empty log,
//     which is exactly the state the just-completed checkpoint made
//     durable. A torn rewrite of any *other* old slot could instead
//     leave a readable prefix of the old chain, and replaying a prefix
//     of a superseded log would regress pages; reusing the head slot
//     first makes that window impossible.
//   - After Reset returns, the new epoch's head is durable, so the
//     max-epoch rule ignores the old chain no matter how recycling
//     mangles it from then on.
//
// Truncate (TruncateToSynced, torn-tail repair) is segment-aware: the
// partial segment is file-truncated and the fully-retired segments past
// it have their headers durably invalidated before they are freed, so a
// discarded suspect tail can never rejoin the chain.

const (
	segMagic = 0x53454731 // "SEG1"
	// segHeaderSize is the fixed segment header: magic (4), epoch (8),
	// index (8), CRC32-C over the previous three (4).
	segHeaderSize = 4 + 8 + 8 + 4
)

// segSlot is one physical segment store (a file, or a memory buffer in
// tests): header bytes at offset 0, payload from segHeaderSize on.
type segSlot interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
	Close() error
}

// segMedium owns a numbered set of slots.
type segMedium interface {
	// List returns the existing slot numbers.
	List() ([]int, error)
	// Open opens slot n, creating it empty if absent.
	Open(n int) (segSlot, error)
	// SyncDir makes slot creations durable (directory fsync).
	SyncDir() error
	// Close releases medium-level resources (slots are closed by the
	// sink).
	Close() error
}

// segment is one live or free member of the pool.
type segment struct {
	slot    segSlot
	slotID  int
	epoch   uint64
	index   uint64
	payload int64 // payload bytes written (file size - header)
	dirty   bool  // has appends/header writes not yet fsynced
}

// SegmentedSink implements WALSink over fixed-size recycled segments.
type SegmentedSink struct {
	mu       sync.Mutex
	medium   segMedium
	segCap   int64
	epoch    uint64 // epoch of the live chain (or last seen, when empty)
	live     []*segment
	free     []*segment
	size     int64 // logical log length
	nextSlot int
	mkdirty  bool // a slot file was created since the last SyncDir
}

// DefaultWALSegmentBytes is the payload capacity of one WAL segment when
// the caller does not choose one (4 MiB — large enough that a segment
// holds hundreds of page images, small enough that a handful of segments
// cover a checkpoint interval).
const DefaultWALSegmentBytes = 4 << 20

// OpenFileSegmentedSink opens (creating if needed) a segmented WAL in
// the given directory, one file per segment. segBytes is the payload
// capacity per segment (<= 0 means DefaultWALSegmentBytes); it must be
// the same across opens of the same directory.
func OpenFileSegmentedSink(dir string, segBytes int64) (*SegmentedSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create wal dir %s: %w", dir, err)
	}
	return newSegmentedSink(&fileSegMedium{dir: dir}, segBytes)
}

// NewMemSegmentedSink returns an in-memory segmented WAL: the log of every
// database opened without a path or sink (crash harnesses put a
// fault.Sink on top and treat it as the durable medium). segBytes <= 0
// means DefaultWALSegmentBytes.
func NewMemSegmentedSink(segBytes int64) *SegmentedSink {
	if segBytes <= 0 {
		segBytes = DefaultWALSegmentBytes
	}
	m := &memSegMedium{slots: map[int]*memSegSlot{}, limit: segHeaderSize + segBytes}
	s, err := newSegmentedSink(m, segBytes)
	if err != nil {
		panic(err) // the memory medium cannot fail to open
	}
	return s
}

func newSegmentedSink(m segMedium, segBytes int64) (*SegmentedSink, error) {
	if segBytes <= 0 {
		segBytes = DefaultWALSegmentBytes
	}
	s := &SegmentedSink{medium: m, segCap: segBytes}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// open scans the medium, selects the live chain, and files everything
// else as free.
func (s *SegmentedSink) open() error {
	slots, err := s.medium.List()
	if err != nil {
		return err
	}
	sort.Ints(slots)
	type cand struct{ seg *segment }
	byEpoch := map[uint64]map[uint64]*segment{}
	var all []*segment
	maxEpoch := uint64(0)
	for _, n := range slots {
		slot, err := s.medium.Open(n)
		if err != nil {
			return err
		}
		if n >= s.nextSlot {
			s.nextSlot = n + 1
		}
		seg := &segment{slot: slot, slotID: n}
		all = append(all, seg)
		size, err := slot.Size()
		if err != nil {
			return err
		}
		if size < segHeaderSize {
			continue // headerless: free
		}
		var hdr [segHeaderSize]byte
		if _, err := slot.ReadAt(hdr[:], 0); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(hdr[0:4]) != segMagic ||
			binary.BigEndian.Uint32(hdr[20:24]) != crc32.Checksum(hdr[0:20], walCRC) {
			continue // torn or stale header: free
		}
		seg.epoch = binary.BigEndian.Uint64(hdr[4:12])
		seg.index = binary.BigEndian.Uint64(hdr[12:20])
		seg.payload = size - segHeaderSize
		if seg.payload > s.segCap {
			seg.payload = s.segCap
		}
		if seg.epoch > maxEpoch {
			maxEpoch = seg.epoch
		}
		if byEpoch[seg.epoch] == nil {
			byEpoch[seg.epoch] = map[uint64]*segment{}
		}
		if byEpoch[seg.epoch][seg.index] == nil { // duplicates: first (lowest slot) wins
			byEpoch[seg.epoch][seg.index] = seg
		}
	}
	s.epoch = maxEpoch
	// The live chain is the highest epoch owning an index-0 segment,
	// walked while indexes are contiguous and every non-final segment is
	// full.
	var chainEpoch uint64
	haveChain := false
	for e, m := range byEpoch {
		if m[0] != nil && (!haveChain || e > chainEpoch) {
			chainEpoch, haveChain = e, true
		}
	}
	inChain := map[*segment]bool{}
	if haveChain {
		m := byEpoch[chainEpoch]
		for i := uint64(0); ; i++ {
			seg := m[i]
			if seg == nil {
				break
			}
			if len(s.live) > 0 {
				prev := s.live[len(s.live)-1]
				if prev.payload != s.segCap {
					break // a short non-final segment ends the chain
				}
			}
			s.live = append(s.live, seg)
			inChain[seg] = true
		}
		for _, seg := range s.live {
			s.size += seg.payload
		}
		s.epoch = chainEpoch
		if s.epoch < maxEpoch {
			// Defensive: stale higher-epoch fragments without a head can
			// never be selected, but keep our epoch above them anyway.
			s.epoch = maxEpoch
		}
	}
	for _, seg := range all {
		if !inChain[seg] {
			s.free = append(s.free, seg)
		}
	}
	return nil
}

// writeHeaderLocked stamps seg's header for (epoch, index) and truncates
// its payload to empty.
func (s *SegmentedSink) writeHeaderLocked(seg *segment, epoch, index uint64) error {
	if err := seg.slot.Truncate(segHeaderSize); err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], segMagic)
	binary.BigEndian.PutUint64(hdr[4:12], epoch)
	binary.BigEndian.PutUint64(hdr[12:20], index)
	binary.BigEndian.PutUint32(hdr[20:24], crc32.Checksum(hdr[0:20], walCRC))
	if _, err := seg.slot.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	seg.epoch, seg.index, seg.payload, seg.dirty = epoch, index, 0, true
	return nil
}

// activateLocked appends the next segment to the live chain, recycling
// the head of the free list or creating a fresh slot. Starting a new
// chain (index 0) bumps the epoch so the chain supersedes everything
// already on disk.
func (s *SegmentedSink) activateLocked() (*segment, error) {
	index := uint64(len(s.live))
	epoch := s.epoch
	if index == 0 {
		epoch = s.epoch + 1
	}
	var seg *segment
	if len(s.free) > 0 {
		seg = s.free[0]
		s.free = s.free[1:]
	} else {
		slot, err := s.medium.Open(s.nextSlot)
		if err != nil {
			return nil, err
		}
		seg = &segment{slot: slot, slotID: s.nextSlot}
		s.nextSlot++
		s.mkdirty = true
	}
	if err := s.writeHeaderLocked(seg, epoch, index); err != nil {
		s.free = append(s.free, seg) // keep the slot tracked for Close
		return nil, err
	}
	s.epoch = epoch
	s.live = append(s.live, seg)
	return seg, nil
}

// Append implements WALSink: the bytes extend the logical stream,
// spilling into freshly activated segments as segments fill.
func (s *SegmentedSink) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(p) > 0 {
		var seg *segment
		if n := len(s.live); n > 0 && s.live[n-1].payload < s.segCap {
			seg = s.live[n-1]
		} else {
			var err error
			if seg, err = s.activateLocked(); err != nil {
				return err
			}
		}
		n := s.segCap - seg.payload
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		if _, err := seg.slot.WriteAt(p[:n], segHeaderSize+seg.payload); err != nil {
			return err
		}
		seg.payload += n
		seg.dirty = true
		s.size += n
		p = p[n:]
	}
	return nil
}

// Sync implements WALSink: fsync every segment dirtied since the last
// sync, and the directory when segment files were created.
func (s *SegmentedSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *SegmentedSink) syncLocked() error {
	for _, seg := range s.live {
		if !seg.dirty {
			continue
		}
		if err := seg.slot.Sync(); err != nil {
			return err
		}
		seg.dirty = false
	}
	if s.mkdirty {
		if err := s.medium.SyncDir(); err != nil {
			return err
		}
		s.mkdirty = false
	}
	return nil
}

// Contents implements WALSink: the live chain's payloads, concatenated.
func (s *SegmentedSink) Contents() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, s.size)
	off := int64(0)
	for _, seg := range s.live {
		if _, err := seg.slot.ReadAt(buf[off:off+seg.payload], segHeaderSize); err != nil {
			return nil, fmt.Errorf("storage: read wal segment %d: %w", seg.slotID, err)
		}
		off += seg.payload
	}
	return buf, nil
}

// Truncate implements WALSink, segment-aware: the segment holding logical
// offset n is file-truncated, and every later segment is retired — its
// header durably invalidated so the discarded tail can never rejoin the
// chain — before going on the free list.
func (s *SegmentedSink) Truncate(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 || n > s.size {
		return fmt.Errorf("storage: wal truncate to %d outside log of %d bytes", n, s.size)
	}
	if n == s.size {
		return nil
	}
	// keep = number of live segments that survive (the last one possibly
	// partial). n == 0 retires everything.
	keep := int(n / s.segCap)
	part := n % s.segCap
	if part > 0 {
		keep++
	}
	retired := s.live[keep:]
	s.live = s.live[:keep]
	if part > 0 {
		last := s.live[keep-1]
		if err := last.slot.Truncate(segHeaderSize + part); err != nil {
			return err
		}
		last.payload = part
		if err := last.slot.Sync(); err != nil {
			return err
		}
		last.dirty = false
	}
	for _, seg := range retired {
		if err := s.invalidateLocked(seg); err != nil {
			return err
		}
		s.free = append(s.free, seg)
	}
	s.size = n
	return nil
}

// invalidateLocked durably destroys seg's header so it can never be
// selected as part of a chain again.
func (s *SegmentedSink) invalidateLocked(seg *segment) error {
	if err := seg.slot.Truncate(0); err != nil {
		return err
	}
	if err := seg.slot.Sync(); err != nil {
		return err
	}
	seg.epoch, seg.index, seg.payload, seg.dirty = 0, 0, 0, false
	return nil
}

// Reset implements WALSink (the post-checkpoint truncation): retire the
// whole chain and durably activate an empty index-0 segment of the next
// epoch, reusing the old chain's head slot first (see the package
// comment for why that ordering is load-bearing).
func (s *SegmentedSink) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.live
	s.live = nil
	s.size = 0
	if len(old) > 0 {
		// Old head first in the free list, so activateLocked recycles it.
		s.free = append(append([]*segment{old[0]}, old[1:]...), s.free...)
	}
	seg, err := s.activateLocked()
	if err != nil {
		return err
	}
	// The new chain must be durably selectable before Reset returns:
	// every byte of the old log is redundant only because the checkpoint
	// that called us already flushed the page file.
	if err := seg.slot.Sync(); err != nil {
		return err
	}
	seg.dirty = false
	if s.mkdirty {
		if err := s.medium.SyncDir(); err != nil {
			return err
		}
		s.mkdirty = false
	}
	return nil
}

// Close implements WALSink.
func (s *SegmentedSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, seg := range append(append([]*segment{}, s.live...), s.free...) {
		if err := seg.slot.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.medium.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Segments reports the live-chain and free-pool sizes (tests, \stats).
func (s *SegmentedSink) Segments() (live, free int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live), len(s.free)
}

// ---------------------------------------------------------------------------
// File medium

// fileSegMedium stores one segment per file ("%06d.seg") in a directory.
type fileSegMedium struct {
	dir string
}

func (m *fileSegMedium) List() ([]int, error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "%06d.seg", &n); err == nil {
			out = append(out, n)
		}
	}
	return out, nil
}

func (m *fileSegMedium) Open(n int) (segSlot, error) {
	f, err := os.OpenFile(filepath.Join(m.dir, fmt.Sprintf("%06d.seg", n)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return (*fileSegSlot)(f), nil
}

func (m *fileSegMedium) SyncDir() error {
	d, err := os.Open(m.dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (m *fileSegMedium) Close() error { return nil }

type fileSegSlot os.File

func (f *fileSegSlot) ReadAt(p []byte, off int64) (int, error)  { return (*os.File)(f).ReadAt(p, off) }
func (f *fileSegSlot) WriteAt(p []byte, off int64) (int, error) { return (*os.File)(f).WriteAt(p, off) }
func (f *fileSegSlot) Truncate(size int64) error                { return (*os.File)(f).Truncate(size) }
func (f *fileSegSlot) Sync() error                              { return (*os.File)(f).Sync() }
func (f *fileSegSlot) Close() error                             { return (*os.File)(f).Close() }
func (f *fileSegSlot) Size() (int64, error) {
	st, err := (*os.File)(f).Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ---------------------------------------------------------------------------
// Memory medium

type memSegMedium struct {
	mu    sync.Mutex
	slots map[int]*memSegSlot
	limit int64 // slot size cap: header + one segment's payload (0: none)
}

func (m *memSegMedium) List() ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for n := range m.slots {
		out = append(out, n)
	}
	return out, nil
}

func (m *memSegMedium) Open(n int) (segSlot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.slots[n]; ok {
		return s, nil
	}
	s := &memSegSlot{limit: m.limit}
	m.slots[n] = s
	return s, nil
}

func (m *memSegMedium) SyncDir() error { return nil }
func (m *memSegMedium) Close() error   { return nil }

type memSegSlot struct {
	mu    sync.Mutex
	buf   []byte
	limit int64 // capacity growth cap (0: none)
}

func (s *memSegSlot) ReadAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(s.buf)) {
		return 0, fmt.Errorf("storage: segment read [%d,%d) outside %d bytes", off, off+int64(len(p)), len(s.buf))
	}
	copy(p, s.buf[off:])
	return len(p), nil
}

func (s *memSegSlot) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(s.buf)) {
		s.resizeLocked(need)
	}
	copy(s.buf[off:], p)
	return len(p), nil
}

func (s *memSegSlot) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resizeLocked(size)
	return nil
}

// resizeLocked sets the slot length to n, zero-filling any extension like
// a file would. Capacity grows by doubling, capped at the slot size limit,
// so a segment filled by small appends is copied O(log n) times rather
// than once per append.
func (s *memSegSlot) resizeLocked(n int64) {
	if n <= int64(cap(s.buf)) {
		old := len(s.buf)
		s.buf = s.buf[:n]
		if int(n) > old {
			clear(s.buf[old:])
		}
		return
	}
	c := 2 * int64(cap(s.buf))
	if s.limit > 0 && c > s.limit {
		c = s.limit
	}
	if c < n {
		c = n
	}
	grown := make([]byte, n, c)
	copy(grown, s.buf)
	s.buf = grown
}

func (s *memSegSlot) Sync() error { return nil }
func (s *memSegSlot) Close() error {
	return nil
}
func (s *memSegSlot) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.buf)), nil
}
