package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	extdb "repro"
)

// opKind is an operation class of some workload. Latencies are kept per
// kind so the per-cartridge numbers can be cut out of the read total.
type opKind int

const (
	kTextRare opKind = iota
	kTextAnd
	kTextModerate
	kSpatial
	kPointRead
	kFullScan
	kGroupBy
	kRangeScan
	kTxn // first write kind: everything from here on is a write
	kInsert
	kUpdate
	kDelete
	numKinds
)

var kindNames = [numKinds]string{
	"text_rare", "text_and", "text_moderate", "spatial", "point_read",
	"full_scan", "group_by", "range_scan", "txn", "insert", "update", "delete",
}

func (k opKind) isWrite() bool { return k >= kTxn }
func (k opKind) isText() bool  { return k <= kTextModerate }

// maxConflictRetries is how often a write is retried after the engine
// reports ErrWriteConflict before the operation counts as failed.
const maxConflictRetries = 3

// clientsPerRun is the closed-loop client count: an embedded library's
// callers each wait for their reply, and two matches the cores of the
// box the acceptance runs share.
const clientsPerRun = 2

// opResult is what one closed-loop step reports back to the harness.
type opResult struct {
	kind      opKind
	lat       time.Duration // call to reply, conflict retries included
	err       error         // operation failed (after retries)
	checkFail string        // oracle mismatch, empty when the reply was right
	retries   int
	userBytes int64 // encoded row bytes the operation wrote
}

// client is one closed-loop caller: step generates its next operation
// from its own seeded stream, runs it, and checks the reply outside the
// timed span.
type client interface {
	step(seq int, tr *clientTrace) opResult
}

// workload is one named traffic mix with its data, oracle and guard.
type workload interface {
	// options are the extdb.Open options an application would use for
	// this data set (everything default except the path and, for the
	// larger-than-cache workload, the cache size).
	options(path string) extdb.Options
	// install registers the cartridges the workload uses (their Go
	// code is per process, so a reopened database needs it again).
	install(db *extdb.DB) error
	// setup creates the schema, loads the generated rows and builds the
	// indexes, timing the CREATE INDEX statements.
	setup(db *extdb.DB) (setupStats, error)
	// clients returns the closed-loop clients over db.
	clients(db *extdb.DB) []client
	// writers returns the clients of the write phase, which follows the
	// window on a workload whose window is read-only and supplies its
	// write metrics; nil when the window has writes of its own.
	writers(db *extdb.DB) []client
	// verify checks the whole database against the harness model: every
	// acknowledged write present, nothing else.
	verify(db *extdb.DB) error
	// guard returns the separation-guard violations of the measured
	// counters: a layer this workload must exercise that stayed idle, or
	// one it must bypass that did work.
	guard(c counters) []string
	// liveBytes is the encoded size of the rows the model holds now.
	liveBytes() int64
	// statements are the SQL texts of the mix (the parse probe's input).
	statements() []string
	// probeRows are generated rows as (key, encoded row) pairs, the
	// input of the standalone storage probes.
	probeRows() (keys, rows [][]byte)
}

// conn is a session plus the trace state of the operation in flight.
// With tr == nil every method is a plain session call.
type conn struct {
	s     *extdb.Session
	tr    *clientTrace
	trace int // operation sequence number
	root  int // root span of the operation
}

func (c *conn) startOp(seq int, tr *clientTrace, kind opKind) {
	c.tr, c.trace = tr, seq
	c.root = tr.begin(seq, 0, "op."+kindNames[kind])
}

func (c *conn) endOp() { c.tr.end(c.root) }

func (c *conn) query(text string, params ...extdb.Value) (*extdb.ResultSet, error) {
	if c.tr == nil {
		return c.s.Query(text, params...)
	}
	id := c.tr.begin(c.trace, c.root, "engine.Query")
	rs, qt, err := c.s.QueryTraced(text, params...)
	c.tr.end(id)
	n := 0
	if rs != nil {
		n = len(rs.Rows)
	}
	c.tr.attachOps(id, qt, n)
	return rs, err
}

func (c *conn) exec(text string, params ...extdb.Value) (extdb.Result, error) {
	id := c.tr.begin(c.trace, c.root, "engine.Exec")
	res, err := c.s.Exec(text, params...)
	c.tr.end(id)
	return res, err
}

func (c *conn) begin() error {
	id := c.tr.begin(c.trace, c.root, "engine.Begin")
	err := c.s.Begin()
	c.tr.end(id)
	return err
}

func (c *conn) commit() error {
	id := c.tr.begin(c.trace, c.root, "engine.Commit")
	err := c.s.Commit()
	c.tr.end(id)
	return err
}

// withRetry runs a write body, retrying it when the engine reports a
// page write conflict. The body must leave no transaction open on error.
func withRetry(body func() error) (retries int, err error) {
	for {
		err = body()
		if err == nil || !errors.Is(err, extdb.ErrWriteConflict) || retries == maxConflictRetries {
			return retries, err
		}
		retries++
		time.Sleep(time.Duration(retries) * 200 * time.Microsecond)
	}
}

// sample is one successful operation of a window.
type sample struct {
	kind opKind
	lat  time.Duration
}

// window is what one measured interval produced.
type window struct {
	epoch      time.Time // when the interval began
	elapsed    time.Duration
	ops        []sample // successful operations, in no particular order
	attempted  int64
	failed     int64 // errored after retries, or failed the oracle
	checkFails int64
	retries    int64
	userBytes  int64
	firstFail  string
	before     extdb.Metrics // DB.Metrics at the interval's two ends
	after      extdb.Metrics
	counters   counters // their difference
	traces     []*clientTrace
}

// latencies returns the latencies in milliseconds, ascending, of the
// operations whose kind satisfies pred.
func (w *window) latencies(pred func(opKind) bool) []float64 {
	var out []float64
	for _, s := range w.ops {
		if pred(s.kind) {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// runWindow drives the clients in a closed loop for d. An operation in
// flight at the deadline completes and counts; elapsed is the real
// length of the interval. seq0 offsets the trace ids so the windows of
// one run do not reuse them.
func runWindow(db *extdb.DB, clients []client, d time.Duration, traced bool, seq0 int) *window {
	w := &window{}
	type acc struct {
		ops                                  []sample
		attempted, failed, checkFails, retry int64
		bytes                                int64
		firstFail                            string
	}
	accs := make([]acc, len(clients))
	epoch := time.Now()
	w.epoch = epoch
	if traced {
		for i := range clients {
			w.traces = append(w.traces, newClientTrace(i+1, epoch))
		}
	}
	w.before = db.Metrics()
	deadline := epoch.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			a := &accs[i]
			var tr *clientTrace
			if traced {
				tr = w.traces[i]
			}
			// Trace ids interleave the clients: client i uses seq0+i,
			// seq0+i+n, ... so an id is unique within the run.
			for seq := seq0 + i; time.Now().Before(deadline); seq += len(clients) {
				r := c.step(seq, tr)
				a.attempted++
				a.retry += int64(r.retries)
				switch {
				case r.err != nil:
					a.failed++
					if a.firstFail == "" {
						a.firstFail = fmt.Sprintf("%s: %v", kindNames[r.kind], r.err)
					}
				case r.checkFail != "":
					a.failed++
					a.checkFails++
					if a.firstFail == "" {
						a.firstFail = fmt.Sprintf("%s: oracle: %s", kindNames[r.kind], r.checkFail)
					}
				default:
					a.ops = append(a.ops, sample{kind: r.kind, lat: r.lat})
					a.bytes += r.userBytes
				}
			}
		}(i, c)
	}
	wg.Wait()
	w.elapsed = time.Since(epoch)
	w.after = db.Metrics()
	w.counters = diffMetrics(w.before, w.after)
	for i := range accs {
		a := &accs[i]
		w.ops = append(w.ops, a.ops...)
		w.attempted += a.attempted
		w.failed += a.failed
		w.checkFails += a.checkFails
		w.retries += a.retry
		w.userBytes += a.bytes
		if w.firstFail == "" {
			w.firstFail = a.firstFail
		}
	}
	return w
}

// setupOnce builds one fresh database under dir and returns it open, with
// the wall time it took.
func setupOnce(w workload, dir string) (db *extdb.DB, total time.Duration, st setupStats, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, st, err
	}
	start := time.Now()
	db, err = extdb.Open(w.options(filepath.Join(dir, "db")))
	if err != nil {
		return nil, 0, st, fmt.Errorf("open: %w", err)
	}
	if err = w.install(db); err == nil {
		st, err = w.setup(db)
	}
	if err == nil {
		err = checkpoint(db)
	}
	total = time.Since(start)
	if err != nil {
		_ = db.Close() // the setup error is the one to report
		return nil, 0, st, fmt.Errorf("setup: %w", err)
	}
	return db, total, st, nil
}

// checkpoint flushes the load's dirty pages and truncates its redo: an
// application would start serving from a checkpointed database. The
// background checkpointer may hold admission at that moment, which the
// engine reports as ErrTxnOpen; with no client running yet it is the
// only possible holder, so waiting it out is safe.
func checkpoint(db *extdb.DB) error {
	for tries := 0; ; tries++ {
		err := db.Checkpoint()
		if !errors.Is(err, extdb.ErrTxnOpen) || tries == 400 {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// diskBytes is what the database occupies after its final checkpoint:
// the page file plus the live segments of the write-ahead log (recycled
// segments in the free pool are not live data).
func diskBytes(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	live, err := liveWALSegments(path + ".wal")
	if err != nil {
		return 0, err
	}
	return st.Size() + int64(live)*walSegmentBytes, nil
}

// resetPeakRSS restarts the kernel's peak-resident-set watermark, so that
// the next peakRSSMB covers only what follows. It reports whether the
// kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
