package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Wait-event accounting. Every point where the engine can block — lock
// acquisition, WAL fsync, exchange backpressure, the ODCI boundary —
// records the blocked interval against a closed enum of wait classes,
// the same model Oracle's wait interface uses to explain where server
// time goes once domain indexes, the optimizer and the transaction
// layer interact. The table is a fixed array of atomic counters, so
// recording a wait is a handful of atomic adds: no allocation, no lock,
// no map.

// WaitClass identifies one kind of blocked time. The enum is closed:
// adding a class means adding recording sites, a String case, and proof
// that the class actually fires.
type WaitClass int

const (
	// WaitAdmissionShared: blocked entering the admission gate in shared
	// mode (ordinary DML/queries waiting out an exclusive holder).
	WaitAdmissionShared WaitClass = iota
	// WaitAdmissionExclusive: blocked entering the admission gate
	// exclusively (DDL, bitmap/domain DML draining shared holders).
	WaitAdmissionExclusive
	// WaitMutationWindow: blocked entering the engine's single-mutator
	// window (page-image mutation serialization).
	WaitMutationWindow
	// WaitWALAppend: blocked on the WAL append mutex (log-tail
	// serialization of commit batches).
	WaitWALAppend
	// WaitWALGroupFsync: blocked in WAL.SyncShared — leader fsync time
	// plus follower waits for a covering group fsync.
	WaitWALGroupFsync
	// WaitPagerLatch: blocked acquiring the pager's central latch
	// (contended TryLock fallback).
	WaitPagerLatch
	// WaitTableLock: blocked in the lock manager acquiring table locks.
	WaitTableLock
	// WaitWriteConflictBackoff: time spent backing off before retrying a
	// transaction aborted by ErrWriteConflict. Recorded by retry loops
	// (the engine itself does not retry).
	WaitWriteConflictBackoff
	// WaitExchangeWorkerIdle: exchange worker blocked handing a finished
	// morsel's chunk to a slow consumer (backpressure).
	WaitExchangeWorkerIdle
	// WaitCheckpointBlocked: checkpoint attempts refused because
	// transactions were still admitted (counted, duration ~0).
	WaitCheckpointBlocked
	// WaitODCICallback: wall time spent inside cartridge ODCI callbacks
	// — the extensibility boundary itself.
	WaitODCICallback
	// WaitCheckpointBackpressure: a buffer-pool shard had to grow past
	// its frame target because every unpinned frame was dirty under the
	// no-steal policy (counted, duration ~0). Each event also pokes the
	// background checkpointer, which is the only thing that can shrink
	// the pool again.
	WaitCheckpointBackpressure

	// NumWaitClasses bounds the table; not a real class.
	NumWaitClasses
)

// String names the class as it appears in reports.
func (c WaitClass) String() string {
	switch c {
	case WaitAdmissionShared:
		return "AdmissionShared"
	case WaitAdmissionExclusive:
		return "AdmissionExclusive"
	case WaitMutationWindow:
		return "MutationWindow"
	case WaitWALAppend:
		return "WALAppend"
	case WaitWALGroupFsync:
		return "WALGroupFsync"
	case WaitPagerLatch:
		return "PagerLatch"
	case WaitTableLock:
		return "TableLock"
	case WaitWriteConflictBackoff:
		return "WriteConflictBackoff"
	case WaitExchangeWorkerIdle:
		return "ExchangeWorkerIdle"
	case WaitCheckpointBlocked:
		return "CheckpointBlocked"
	case WaitODCICallback:
		return "ODCICallback"
	case WaitCheckpointBackpressure:
		return "CheckpointBackpressure"
	}
	return fmt.Sprintf("WaitClass(%d)", int(c))
}

// waitCounters is one class's accumulator row.
type waitCounters struct {
	count      Counter
	totalNanos Counter
	maxNanos   Counter
}

// WaitStats is the live wait-event table: per-class {count, total, max}
// plus one power-of-two duration histogram across all classes. The zero
// value is ready to use. A nil *WaitStats is safe everywhere: StartWait
// still measures the interval (so callers feeding legacy gauges keep
// working) but records nothing.
type WaitStats struct {
	classes   [NumWaitClasses]waitCounters
	durations Histogram

	slowNanos atomic.Int64                   // threshold for EvSlowWait flight events; 0 = off
	flight    atomic.Pointer[FlightRecorder] // receives EvSlowWait events when set
}

// SetSlowWaitThreshold makes Done emit an EvSlowWait flight event for
// any wait at or above d. Zero disables slow-wait events.
func (w *WaitStats) SetSlowWaitThreshold(d time.Duration) { w.slowNanos.Store(int64(d)) }

// AttachFlight routes slow-wait events into the given recorder.
func (w *WaitStats) AttachFlight(f *FlightRecorder) { w.flight.Store(f) }

// ActiveWait is an in-flight wait started by StartWait. It is a value
// type: starting and finishing a wait allocates nothing.
type ActiveWait struct {
	w     *WaitStats
	class WaitClass
	start time.Time
}

// StartWait begins timing a wait of the given class. Always pair with
// Done. The returned value is valid even on a nil receiver — Done still
// measures and returns the elapsed nanoseconds so callsites can feed
// legacy gauges unconditionally.
func (w *WaitStats) StartWait(class WaitClass) ActiveWait {
	return ActiveWait{w: w, class: class, start: time.Now()}
}

// Done finishes the wait, records it, and returns its duration in
// nanoseconds.
func (a ActiveWait) Done() int64 {
	n := time.Since(a.start).Nanoseconds()
	if a.w != nil {
		a.w.Record(a.class, n)
	}
	return n
}

// Record accounts an already-measured wait of n nanoseconds. This is
// the one mutation path into the table; StartWait/Done is sugar over
// it. Negative durations clamp to zero.
func (w *WaitStats) Record(class WaitClass, n int64) {
	w.RecordAux(class, n, "")
}

// RecordAux is Record with a free-form payload that rides along on the
// EvSlowWait flight event a slow wait emits (e.g. "shard=3" from a
// contended pager-shard latch), so the recorder shows not just that a
// latch was slow but which one. The table itself stays per-class; aux
// costs nothing unless the wait crosses the slow threshold.
func (w *WaitStats) RecordAux(class WaitClass, n int64, aux string) {
	if w == nil || class < 0 || class >= NumWaitClasses {
		return
	}
	if n < 0 {
		n = 0
	}
	c := &w.classes[class]
	c.count.Inc()
	c.totalNanos.Add(n)
	c.maxNanos.StoreMax(n)
	w.durations.Observe(n)
	if t := w.slowNanos.Load(); t > 0 && n >= t {
		w.flight.Load().Record(EvSlowWait, int64(class), n, aux)
	}
}

// Snapshot returns an inert copy of the table. Classes that never
// fired are omitted.
func (w *WaitStats) Snapshot() WaitSnapshot {
	if w == nil {
		return WaitSnapshot{}
	}
	s := WaitSnapshot{Durations: w.durations.Snapshot()}
	for i := WaitClass(0); i < NumWaitClasses; i++ {
		c := &w.classes[i]
		if n := c.count.Load(); n > 0 {
			if s.Classes == nil {
				s.Classes = map[string]WaitCounts{}
			}
			s.Classes[i.String()] = WaitCounts{
				Count:      n,
				TotalNanos: c.totalNanos.Load(),
				MaxNanos:   c.maxNanos.Load(),
			}
		}
	}
	return s
}

// WaitCounts is one class's inert accumulator row.
type WaitCounts struct {
	Count      int64
	TotalNanos int64
	MaxNanos   int64
}

// WaitSnapshot is an inert copy of a WaitStats table.
type WaitSnapshot struct {
	// Classes maps class name -> counts; classes that never fired are
	// absent.
	Classes map[string]WaitCounts
	// Durations is the all-class power-of-two histogram of wait lengths
	// in nanoseconds.
	Durations HistogramSnapshot
}

// Delta returns this snapshot minus an earlier one of the same table —
// the waits that happened in between. Histogram buckets subtract
// pairwise; maxima keep the later snapshot's value (an upper bound for
// the interval).
func (s WaitSnapshot) Delta(before WaitSnapshot) WaitSnapshot {
	d := WaitSnapshot{}
	for k, v := range s.Classes {
		b := before.Classes[k]
		if v.Count == b.Count && v.TotalNanos == b.TotalNanos {
			continue
		}
		if d.Classes == nil {
			d.Classes = map[string]WaitCounts{}
		}
		d.Classes[k] = WaitCounts{
			Count:      v.Count - b.Count,
			TotalNanos: v.TotalNanos - b.TotalNanos,
			MaxNanos:   v.MaxNanos,
		}
	}
	d.Durations.Count = s.Durations.Count - before.Durations.Count
	d.Durations.Sum = s.Durations.Sum - before.Durations.Sum
	prev := map[int64]int64{}
	for _, b := range before.Durations.Buckets {
		prev[b.UpperBound] = b.Count
	}
	for _, b := range s.Durations.Buckets {
		if n := b.Count - prev[b.UpperBound]; n > 0 {
			d.Durations.Buckets = append(d.Durations.Buckets, HistogramBucket{UpperBound: b.UpperBound, Count: n})
		}
	}
	return d
}

// namedWait pairs a class name with its counts for sorting.
type namedWait struct {
	Name string
	WaitCounts
}

// sorted returns the classes ordered by total time descending (name
// ascending on ties, for stable output).
func (s WaitSnapshot) sorted() []namedWait {
	out := make([]namedWait, 0, len(s.Classes))
	for k, v := range s.Classes {
		out = append(out, namedWait{Name: k, WaitCounts: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNanos != out[j].TotalNanos {
			return out[i].TotalNanos > out[j].TotalNanos
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopWaits returns up to n classes ordered by total blocked time.
func (s WaitSnapshot) TopWaits(n int) []string {
	var out []string
	for i, w := range s.sorted() {
		if i >= n {
			break
		}
		out = append(out, fmt.Sprintf("%s total=%v count=%d max=%v",
			w.Name, time.Duration(w.TotalNanos), w.Count, time.Duration(w.MaxNanos)))
	}
	return out
}

// String renders the full table, top waits first.
func (s WaitSnapshot) String() string {
	if len(s.Classes) == 0 {
		return "no waits recorded"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %14s %12s %12s\n", "class", "count", "total", "avg", "max")
	for _, w := range s.sorted() {
		avg := int64(0)
		if w.Count > 0 {
			avg = w.TotalNanos / w.Count
		}
		fmt.Fprintf(&b, "%-22s %10d %14v %12v %12v\n",
			w.Name, w.Count,
			time.Duration(w.TotalNanos).Round(time.Microsecond),
			time.Duration(avg).Round(time.Microsecond),
			time.Duration(w.MaxNanos).Round(time.Microsecond))
	}
	return strings.TrimRight(b.String(), "\n")
}
