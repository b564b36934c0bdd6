package obs

import (
	"fmt"
	"time"
)

// ExecStats is the live, race-free aggregate of parallel-executor
// activity: how many exchanges ran, how many morsel pipelines their
// workers pulled, and how long workers spent busy inside morsel
// NextBatch calls. WorkerBusy across N workers overlaps in wall time,
// so busy/elapsed ratios read as effective core utilization.
type ExecStats struct {
	exchanges         Counter
	morselsDispatched Counter
	workerBusyNanos   Counter
}

// ExchangeStarted notes one exchange spinning up its workers.
func (e *ExecStats) ExchangeStarted() { e.exchanges.Inc() }

// MorselDispatched notes one morsel pipeline handed to a worker.
func (e *ExecStats) MorselDispatched() { e.morselsDispatched.Inc() }

// AddWorkerBusy accumulates time a worker spent producing batches.
func (e *ExecStats) AddWorkerBusy(nanos int64) { e.workerBusyNanos.Add(nanos) }

// Snapshot returns an inert copy.
func (e *ExecStats) Snapshot() ExecSnapshot {
	return ExecSnapshot{
		Exchanges:         e.exchanges.Load(),
		MorselsDispatched: e.morselsDispatched.Load(),
		WorkerBusyNanos:   e.workerBusyNanos.Load(),
	}
}

// ExecSnapshot is an inert copy of ExecStats.
type ExecSnapshot struct {
	// Exchanges counts exchange operators that started workers.
	Exchanges int64
	// MorselsDispatched counts morsel pipelines pulled by workers.
	MorselsDispatched int64
	// WorkerBusyNanos is cumulative worker time inside morsel NextBatch
	// calls (overlapping across workers, so it can exceed wall time).
	WorkerBusyNanos int64
}

// String renders the snapshot as one line.
func (s ExecSnapshot) String() string {
	return fmt.Sprintf("exchanges=%d morsels=%d workerBusy=%s",
		s.Exchanges, s.MorselsDispatched, time.Duration(s.WorkerBusyNanos).Round(time.Microsecond))
}
