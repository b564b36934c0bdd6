// Package obs is the engine's observability substrate: dependency-free
// atomic counters, power-of-two histogram buckets, and the per-query
// trace recorder behind EXPLAIN ANALYZE and the slow-query hook.
//
// Design rules, held by construction and by the package's tests:
//
//   - Live aggregates (types whose name ends in "Stats") hold only
//     Counter and Histogram fields — never bare numeric fields — so every
//     update goes through the atomic helpers and stays race-free under
//     `go test -race`. The fields are unexported; callers mutate them
//     through methods and read them through Snapshot().
//     TestStatsAggregatesConcurrent calls every recording method from
//     eight goroutines under -race and requires exact totals.
//   - Snapshot types (…Snapshot, and the plain-field trace records
//     QueryTrace / OpNode / PlanCandidate) are inert copies with exported
//     fields, safe to marshal and compare. Trace records are written by
//     exactly one goroutine (the session executing the query), so they
//     need no synchronization.
//   - The package imports nothing outside the standard library, so every
//     layer — storage, txn, exec, extidx, engine — can depend on it
//     without cycles.
package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a race-free monotonic event counter: it only goes up, so an
// interval is read as the difference of two snapshots. The zero value is
// ready to use. The underlying word is unexported so the only way to
// update it is through these helpers.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// StoreMax raises the value to n if n is larger (high-water marks).
func (c *Counter) StoreMax(n int64) {
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1),
// the last bucket absorbs everything larger.
const histBuckets = 24

// Histogram counts observations in power-of-two buckets, tracking the
// total and the sum for mean computation. All methods are race-free; the
// zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketUpperBound returns the inclusive upper bound of bucket i.
func BucketUpperBound(i int) int64 {
	if i >= histBuckets-1 {
		return int64(1) << 62
	}
	return int64(1) << uint(i)
}

// Snapshot returns an inert copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: BucketUpperBound(i), Count: n})
		}
	}
	return s
}

// HistogramBucket is one populated bucket of a snapshot.
type HistogramBucket struct {
	UpperBound int64 // inclusive; observations v satisfy v <= UpperBound
	Count      int64
}

// HistogramSnapshot is an inert copy of a Histogram (empty buckets
// omitted).
type HistogramSnapshot struct {
	Buckets []HistogramBucket
	Count   int64
	Sum     int64
}

// Mean returns the average observed value (0 with no observations).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// ---------------------------------------------------------------------------
// Planner aggregates

// PlannerStats is the live, race-free aggregate of optimizer activity:
// how many table accesses were planned, how many candidate access paths
// were costed, and which path kind won each time.
type PlannerStats struct {
	plans      Counter
	candidates Counter

	mu     sync.Mutex
	chosen map[string]int64 // path kind -> times chosen; guarded by mu
}

// RecordPlan notes one completed choosePath run: n candidates were
// costed and the path of the given kind won.
func (p *PlannerStats) RecordPlan(candidates int, chosenKind string) {
	p.plans.Inc()
	p.candidates.Add(int64(candidates))
	p.mu.Lock()
	if p.chosen == nil {
		p.chosen = make(map[string]int64)
	}
	p.chosen[chosenKind]++
	p.mu.Unlock()
}

// Snapshot returns an inert copy.
func (p *PlannerStats) Snapshot() PlannerSnapshot {
	s := PlannerSnapshot{
		Plans:        p.plans.Load(),
		Candidates:   p.candidates.Load(),
		ChosenByKind: map[string]int64{},
	}
	p.mu.Lock()
	for k, v := range p.chosen {
		s.ChosenByKind[k] = v
	}
	p.mu.Unlock()
	return s
}

// PlannerSnapshot is an inert copy of PlannerStats.
type PlannerSnapshot struct {
	// Plans counts choosePath invocations (one per planned table access).
	Plans int64
	// Candidates counts access paths costed across all plans.
	Candidates int64
	// ChosenByKind counts winning paths per kind (FULL, BTREE, DOMAIN, …).
	ChosenByKind map[string]int64
}

// String renders the snapshot as one line.
func (s PlannerSnapshot) String() string {
	return fmt.Sprintf("plans=%d candidates=%d chosen=%v", s.Plans, s.Candidates, s.ChosenByKind)
}
