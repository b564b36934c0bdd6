// Morsel-driven parallel execution. A morsel is one independently
// executable slice of a scan — a heap page range, or one partition of a
// partitioned ODCI index scan — packaged as an Iterator pipeline
// (optionally with Filter/Project/partial-aggregate stages stacked on
// top). Exchange fans N worker goroutines out over one morsel list and
// funnels their result chunks back to the single consuming
// goroutine, so everything above the exchange stays a plain serial
// iterator.
//
// Chunk ownership across the worker/consumer handoff follows one rule:
// a chunk sent on the exchange channel is freshly allocated by the
// sender, which never touches it again. The rows a morsel pipeline
// produces are valid only until its next NextBatch (the Chunk
// contract), and the worker calls it again while the consumer still
// reads the last batch, so the worker copies each batch's rows into one
// fresh slab (keepRows) before the send. The consumer then owns the
// rows and may keep them. Both halves are held by tests: a worker that
// reuses its chunk fails the parallel parity tests under plain go test,
// and one that sends rows without keepRows fails
// TestRowsValidUntilNextBatch.
package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// PageRanges splits a heap page list into contiguous ranges of at most
// rangePages pages — the morsel granularity of a parallel heap scan.
func PageRanges(pages []storage.PageID, rangePages int) [][]storage.PageID {
	if rangePages < 1 {
		rangePages = 1
	}
	var out [][]storage.PageID
	for len(pages) > rangePages {
		out = append(out, pages[:rangePages])
		pages = pages[rangePages:]
	}
	if len(pages) > 0 {
		out = append(out, pages)
	}
	return out
}

// Exchange runs Workers goroutines that take morsel pipelines from
// Morsels in index order, drain each pipeline chunk by chunk, and push
// the chunks into a bounded channel the consuming goroutine reads
// through NextBatch.
// Row order across morsels is nondeterministic; the planner keeps
// order-sensitive operators (Sort, Limit, joins) above the exchange,
// where they see the usual serial iterator.
//
// Error and cancel rules: the first worker error is recorded and stops
// the exchange (remaining workers wind down at their next send or
// morsel boundary); the consumer sees the error on its next NextBatch,
// and once surfaced it is sticky. Close is deterministic regardless of
// how much was consumed: it cancels the workers, drains the channel
// until the last worker has exited, closes every morsel no worker took,
// and merges the per-worker trace nodes into Node.
type Exchange struct {
	// Morsels are the morsel pipelines. Each is owned (run and closed) by
	// the worker that takes it; Close closes the ones never taken — which
	// is what releases pre-opened scan partitions when a plan is built
	// and closed without executing (EXPLAIN).
	Morsels []Iterator
	// Workers is the worker goroutine count (min 1).
	Workers int
	// BatchSize sizes worker-produced chunks (<=0: DefaultChunkSize).
	BatchSize int
	// Stats, when set, receives exchange/morsel/busy counters.
	Stats *obs.ExecStats
	// Waits, when set, receives each worker's chunk-handoff time as
	// WaitExchangeWorkerIdle: the interval a worker spends blocked on
	// the output channel waiting for the consumer (backpressure).
	Waits *obs.WaitStats
	// Node, when set, is this operator's trace node: the per-worker
	// sub-nodes (rows, batches, morsels, busy time accumulated without
	// sharing) are merged into it at Close. The node's own Rows/Nanos
	// stay consumer-side (an enclosing Instrument), which is what keeps
	// EXPLAIN ANALYZE wall times truthful under parallelism.
	Node *obs.OpNode

	next    atomic.Int64 // index of the next morsel to hand out
	started bool
	closed  bool
	out     chan *Chunk
	done    chan struct{}
	stop    sync.Once
	wg      sync.WaitGroup

	mu          sync.Mutex // guards err
	err         error
	workerNodes []*obs.OpNode

	sticky error // error already surfaced to the consumer
}

// NextBatch implements Iterator. The received chunk's slices are
// appended into c; the sender allocated the chunk and copied its rows
// for this handoff and has dropped both, so no further copy is needed.
func (e *Exchange) NextBatch(c *Chunk) error {
	c.Reset()
	if e.sticky != nil {
		return e.sticky
	}
	if !e.started {
		e.start()
	}
	if err := e.takeErr(); err != nil {
		return e.surface(err)
	}
	ck, ok := <-e.out
	if !ok {
		if err := e.takeErr(); err != nil {
			return e.surface(err)
		}
		return nil // all workers done: EOS
	}
	c.Rows = append(c.Rows, ck.Rows...)
	c.RIDs = append(c.RIDs, ck.RIDs...)
	c.Anc = append(c.Anc, ck.Anc...)
	c.Label, c.Sink = ck.Label, ck.Sink
	return nil
}

// surface makes a worker error the consumer's result: cancel the
// remaining workers, discard buffered chunks, and return it (sticky).
func (e *Exchange) surface(err error) error {
	e.sticky = err
	e.cancel()
	for range e.out {
	}
	return err
}

func (e *Exchange) start() {
	n := e.Workers
	if n < 1 {
		n = 1
	}
	e.started = true
	e.out = make(chan *Chunk, 2*n)
	e.done = make(chan struct{})
	e.workerNodes = make([]*obs.OpNode, n)
	if e.Stats != nil {
		e.Stats.ExchangeStarted()
	}
	for i := 0; i < n; i++ {
		e.workerNodes[i] = &obs.OpNode{}
		e.wg.Add(1)
		go e.worker(e.workerNodes[i])
	}
	// Dedicated closer: the consumer learns all workers have exited by
	// the channel closing, without blocking any worker's last send.
	go func() {
		e.wg.Wait()
		close(e.out)
	}()
}

func (e *Exchange) worker(node *obs.OpNode) {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		default:
		}
		i := e.next.Add(1) - 1
		if i >= int64(len(e.Morsels)) {
			return
		}
		it := e.Morsels[i]
		node.Morsels++
		if e.Stats != nil {
			e.Stats.MorselDispatched()
		}
		if err := e.runMorsel(it, node); err != nil {
			e.fail(err)
			return
		}
	}
}

// runMorsel drains one morsel pipeline, sending each non-empty chunk to
// the consumer. The iterator is closed on every exit path.
func (e *Exchange) runMorsel(it Iterator, node *obs.OpNode) error {
	batch := e.BatchSize
	if batch <= 0 {
		batch = DefaultChunkSize
	}
	for {
		ck := NewChunk(batch)
		start := time.Now()
		err := it.NextBatch(ck)
		busy := time.Since(start).Nanoseconds()
		node.Nanos += busy
		if e.Stats != nil {
			e.Stats.AddWorkerBusy(busy)
		}
		if err != nil {
			return errors.Join(err, it.Close())
		}
		if ck.Len() == 0 {
			return it.Close()
		}
		node.Rows += int64(ck.Len())
		node.Batches++
		// The morsel may reuse the rows' storage on its next call, while
		// the consumer still holds this batch.
		ck.Rows = keepRows(ck.Rows[:0], ck.Rows)
		// The handoff is the worker's idle time: with a slow consumer the
		// bounded channel fills and the send blocks. Every send is timed
		// (per-chunk, so the cost is amortized over the batch) — the class
		// must register even when the consumer keeps up, or a dead
		// recording path would be indistinguishable from a fast consumer.
		aw := e.Waits.StartWait(obs.WaitExchangeWorkerIdle)
		select {
		case e.out <- ck: // ownership of ck transfers to the consumer
			aw.Done()
		case <-e.done:
			aw.Done()
			return it.Close()
		}
	}
}

// fail records the first worker error and cancels the exchange.
func (e *Exchange) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.cancel()
}

func (e *Exchange) cancel() {
	e.stop.Do(func() { close(e.done) })
}

func (e *Exchange) takeErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Close implements Iterator: cancel workers, drain the channel until
// the last worker has exited (every taken morsel is closed by its
// worker on the way out), close the morsels no worker took, and merge
// worker trace nodes. Idempotent; a worker error the consumer
// never observed surfaces here.
func (e *Exchange) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.started {
		e.cancel()
		// Draining to channel close synchronizes with wg.Wait in the
		// closer goroutine: after this loop no worker is running.
		for range e.out {
		}
	}
	var errs []error
	for i := e.next.Swap(int64(len(e.Morsels))); i < int64(len(e.Morsels)); i++ {
		errs = append(errs, e.Morsels[i].Close())
	}
	if e.Node != nil && e.workerNodes != nil {
		e.Node.Parallel = len(e.workerNodes)
		e.Node.Workers = append(e.Node.Workers, e.workerNodes...)
		e.workerNodes = nil
	}
	if err := e.takeErr(); err != nil && !errors.Is(e.sticky, err) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
