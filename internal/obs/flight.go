package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// The flight recorder is an always-on, fixed-size ring of recent engine
// events — commits with their group size, rollbacks, checkpoints,
// write-conflict aborts, slow waits, DDL. When something goes wrong (a
// slow query fires the hook, LeakCheck fails at Close) the last few
// hundred events explain what the engine was doing, without anyone
// having had to turn tracing on beforehand. Recording must therefore be
// cheap enough to leave on: one atomic ticket fetch plus a handful of
// atomic stores into a fixed slot, no lock, no allocation (the tag
// pointer is nil for untagged events), no interface boxing.

// EventKind discriminates flight-recorder events.
type EventKind int32

const (
	// EvCommit: a transaction committed. A = txn id.
	EvCommit EventKind = iota
	// EvRollback: a transaction rolled back. A = txn id.
	EvRollback
	// EvGroupFsync: one WAL fsync durably committed a group.
	// A = commits covered, B = fsync nanos.
	EvGroupFsync
	// EvCheckpoint: a checkpoint ran (tag "") or was refused because
	// transactions were open (tag "refused").
	EvCheckpoint
	// EvWriteConflict: a write transaction aborted on ErrWriteConflict.
	// Tag = table name.
	EvWriteConflict
	// EvSlowWait: a wait exceeded the slow-wait threshold.
	// A = WaitClass, B = nanos.
	EvSlowWait
	// EvDDL: a DDL statement executed. Tag = statement kind.
	EvDDL
)

// String names the kind as it appears in dumps.
func (k EventKind) String() string {
	switch k {
	case EvCommit:
		return "commit"
	case EvRollback:
		return "rollback"
	case EvGroupFsync:
		return "group-fsync"
	case EvCheckpoint:
		return "checkpoint"
	case EvWriteConflict:
		return "write-conflict"
	case EvSlowWait:
		return "slow-wait"
	case EvDDL:
		return "ddl"
	}
	return fmt.Sprintf("EventKind(%d)", int32(k))
}

// FlightEvent is one inert, decoded ring entry.
type FlightEvent struct {
	Seq  uint64    // global sequence number (monotone across the ring)
	Time time.Time // wall time of the Record call
	Kind EventKind
	A, B int64  // kind-specific payload (see the EventKind docs)
	Tag  string // kind-specific label ("" for most events)
}

// String renders the event as one dump line.
func (e FlightEvent) String() string {
	detail := ""
	switch e.Kind {
	case EvCommit, EvRollback:
		detail = fmt.Sprintf(" tx=%d", e.A)
	case EvGroupFsync:
		detail = fmt.Sprintf(" commits=%d fsync=%v", e.A, time.Duration(e.B).Round(time.Microsecond))
	case EvSlowWait:
		detail = fmt.Sprintf(" class=%s waited=%v", WaitClass(e.A), time.Duration(e.B).Round(time.Microsecond))
	}
	if e.Tag != "" {
		detail += " " + e.Tag
	}
	return fmt.Sprintf("#%d %s %s%s", e.Seq, e.Time.Format("15:04:05.000000"), e.Kind, detail)
}

// flightSlot is one ring entry. Every field is atomic and the slot is
// versioned like a seqlock: the writer bumps ver to odd, stores the
// fields, then bumps ver to even. A reader that sees an odd version, or
// a version that changed while it copied the fields, discards the slot.
// Torn reads can in principle slip through if a second writer laps the
// entire ring between a reader's two version loads — acceptable for a
// best-effort diagnostic buffer, and vanishingly rare at real ring
// sizes.
type flightSlot struct {
	ver  atomic.Uint64 // odd while a writer owns the slot
	seq  atomic.Uint64
	t    atomic.Int64 // wall time, UnixNano
	kind atomic.Int64
	a    atomic.Int64
	b    atomic.Int64
	tag  atomic.Pointer[string] // nil for untagged events (zero-alloc path)
}

// FlightRecorder is the lock-free ring. A nil *FlightRecorder is safe:
// Record is a no-op and Events returns nil.
type FlightRecorder struct {
	next  atomic.Uint64 // next global sequence number (ticket counter)
	slots []flightSlot
	mask  uint64
}

// DefaultFlightSize is the ring capacity used by the engine.
const DefaultFlightSize = 1024

// NewFlightRecorder builds a ring of the given capacity, rounded up to
// a power of two (minimum 16; <=0 selects DefaultFlightSize).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]flightSlot, n), mask: uint64(n - 1)}
}

// Record appends one event. Safe from any goroutine; never blocks.
func (f *FlightRecorder) Record(kind EventKind, a, b int64, tag string) {
	if f == nil {
		return
	}
	seq := f.next.Add(1)
	s := &f.slots[seq&f.mask]
	s.ver.Add(1) // odd: writer owns the slot
	s.seq.Store(seq)
	s.t.Store(time.Now().UnixNano())
	s.kind.Store(int64(kind))
	s.a.Store(a)
	s.b.Store(b)
	if tag == "" {
		s.tag.Store(nil)
	} else {
		t := tag
		s.tag.Store(&t)
	}
	s.ver.Add(1) // even: slot published
}

// Events returns a consistent copy of the ring's current contents in
// chronological (sequence) order. Slots mid-write or overwritten during
// the copy are skipped.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		v1 := s.ver.Load()
		if v1 == 0 || v1%2 == 1 {
			continue // empty or mid-write
		}
		e := FlightEvent{
			Seq:  s.seq.Load(),
			Time: time.Unix(0, s.t.Load()),
			Kind: EventKind(s.kind.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
		}
		if p := s.tag.Load(); p != nil {
			e.Tag = *p
		}
		if s.ver.Load() != v1 {
			continue // overwritten while copying
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the total number of events ever recorded (not the ring
// occupancy).
func (f *FlightRecorder) Len() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}

// Dump renders the current ring contents, oldest first, one line per
// event.
func (f *FlightRecorder) Dump() []string {
	evs := f.Events()
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.String()
	}
	return out
}
