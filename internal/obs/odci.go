package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Callback identifies one ODCI interface routine at the engine/cartridge
// boundary. The first block mirrors IndexMethods (ODCIIndex*), the second
// StatsMethods (ODCIStats*).
type Callback int

// ODCI callbacks, in interface order.
const (
	CbCreate Callback = iota
	CbAlter
	CbTruncate
	CbDrop
	CbInsert
	CbUpdate
	CbDelete
	CbStart
	CbFetch
	CbClose
	CbSelectivity
	CbIndexCost
	CbCollect
	CbStartParallel
	numCallbacks
)

// String names the callback as the paper does.
func (c Callback) String() string {
	switch c {
	case CbCreate:
		return "ODCIIndexCreate"
	case CbAlter:
		return "ODCIIndexAlter"
	case CbTruncate:
		return "ODCIIndexTruncate"
	case CbDrop:
		return "ODCIIndexDrop"
	case CbInsert:
		return "ODCIIndexInsert"
	case CbUpdate:
		return "ODCIIndexUpdate"
	case CbDelete:
		return "ODCIIndexDelete"
	case CbStart:
		return "ODCIIndexStart"
	case CbFetch:
		return "ODCIIndexFetch"
	case CbClose:
		return "ODCIIndexClose"
	case CbSelectivity:
		return "ODCIStatsSelectivity"
	case CbIndexCost:
		return "ODCIStatsIndexCost"
	case CbCollect:
		return "ODCIStatsCollect"
	case CbStartParallel:
		return "ODCIIndexStartParallel"
	}
	return fmt.Sprintf("Callback(%d)", int(c))
}

// ODCIStats is the live, race-free aggregate of activity at the ODCI
// boundary: per-callback invocation counts and cumulative wall time,
// Fetch batch-size distribution, and the scan-context transport split
// (return-state vs return-handle).
type ODCIStats struct {
	calls [numCallbacks]Counter
	nanos [numCallbacks]Counter

	fetchBatch  Histogram // RIDs returned per ODCIIndexFetch call
	stateValue  Counter   // scans started with a StateValue context
	stateHandle Counter   // scans started with a StateHandle context

	waits atomic.Pointer[WaitStats] // receives WaitODCICallback when set
}

// AttachWaits routes callback wall time into the engine wait table as
// WaitODCICallback, so cartridge time shows up in the same breakdown as
// lock and fsync stalls.
func (o *ODCIStats) AttachWaits(w *WaitStats) { o.waits.Store(w) }

// Record notes one callback invocation and its wall time.
func (o *ODCIStats) Record(cb Callback, d time.Duration) {
	if cb < 0 || cb >= numCallbacks {
		return
	}
	o.calls[cb].Inc()
	o.nanos[cb].Add(d.Nanoseconds())
	o.waits.Load().Record(WaitODCICallback, d.Nanoseconds())
}

// ObserveFetchBatch records the RID count of one Fetch result.
func (o *ODCIStats) ObserveFetchBatch(n int) { o.fetchBatch.Observe(int64(n)) }

// RecordScanTransport notes which scan-context transport a started scan
// chose (§2.2.3: "return state" vs "return handle").
func (o *ODCIStats) RecordScanTransport(handle bool) {
	if handle {
		o.stateHandle.Inc()
	} else {
		o.stateValue.Inc()
	}
}

// Snapshot returns an inert copy (callbacks never invoked are omitted).
func (o *ODCIStats) Snapshot() ODCISnapshot {
	s := ODCISnapshot{
		Callbacks:        map[string]CallbackStats{},
		FetchBatch:       o.fetchBatch.Snapshot(),
		StateValueScans:  o.stateValue.Load(),
		StateHandleScans: o.stateHandle.Load(),
	}
	for cb := Callback(0); cb < numCallbacks; cb++ {
		if n := o.calls[cb].Load(); n > 0 {
			s.Callbacks[cb.String()] = CallbackStats{Calls: n, Nanos: o.nanos[cb].Load()}
		}
	}
	return s
}

// CallbackStats is the per-callback slice of an ODCISnapshot.
type CallbackStats struct {
	Calls int64
	Nanos int64 // cumulative wall time inside the callback
}

// ODCISnapshot is an inert copy of ODCIStats.
type ODCISnapshot struct {
	// Callbacks maps callback name to invocation count and cumulative
	// wall time; never-invoked callbacks are absent.
	Callbacks map[string]CallbackStats
	// FetchBatch is the distribution of RIDs returned per Fetch call.
	FetchBatch HistogramSnapshot
	// StateValueScans / StateHandleScans split started scans by scan-
	// context transport.
	StateValueScans  int64
	StateHandleScans int64
}

// String renders the snapshot, one callback per line, busiest first.
func (s ODCISnapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Callbacks))
	for k := range s.Callbacks {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		a, c := s.Callbacks[names[i]], s.Callbacks[names[j]]
		if a.Nanos != c.Nanos {
			return a.Nanos > c.Nanos
		}
		return names[i] < names[j]
	})
	for _, k := range names {
		cs := s.Callbacks[k]
		fmt.Fprintf(&b, "%-22s calls=%-8d time=%s\n", k, cs.Calls, time.Duration(cs.Nanos).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "fetch batch: calls=%d mean=%.1f rids/call\n", s.FetchBatch.Count, s.FetchBatch.Mean())
	fmt.Fprintf(&b, "scan context: value=%d handle=%d\n", s.StateValueScans, s.StateHandleScans)
	return b.String()
}
