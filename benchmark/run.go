package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	extdb "repro"
	"repro/internal/obs"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window
	trace    bool
	outDir   string  // reports, traces and the scratch databases go here
	scale    float64 // data-size multiplier; 1 is the benchmark, tests shrink it
	warmup   time.Duration
	setups   int           // how many times the database is built; setup_s is the median
	writes   time.Duration // length of the write phase of a read-only workload
}

// setupStats is what building the database cost, split by what built it.
type setupStats struct {
	indexBuild              time.Duration // every CREATE INDEX statement
	textBuild, spatialBuild time.Duration // the INDEXTYPE IS ones
	textDocs, spatialGeoms  int
	odciCreate              time.Duration // inside ODCIIndexCreate
	odciCreateCalls         int64
}

// report is one run's result: the JSON object the program prints and
// `compare` reads.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Seconds   float64  `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runWorkload performs one run: set-up (several times, keeping the
// last), warm-up, the measured window (split into an untraced and a
// traced part when tracing), the guard check, the write phase of a
// read-only workload, the oracle and the close-and-reopen check.
func runWorkload(cfg config, log io.Writer) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace, Seconds: cfg.seconds, Correct: true}
	fail := func(format string, args ...any) {
		rep.Correct = false
		rep.Notes = append(rep.Notes, fmt.Sprintf(format, args...))
	}

	dataDir, err := os.MkdirTemp(cfg.outDir, "data-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	// The reference process measures the machine for as long as anything
	// is timed (see reference.go).
	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	refStopped := false
	defer func() {
		if !refStopped {
			_ = ref.stop() // an earlier error is already being returned
		}
	}()

	// Set-up, repeated so that setup_s and index_build_s are medians.
	var setupSecs, indexSecs, setupSpeeds []float64
	var setup setupStats
	dbDir := ""
	var db *extdb.DB
	for i := 0; i < cfg.setups; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close set-up database: %w", err)
			}
			if err := os.RemoveAll(dbDir); err != nil {
				return nil, err
			}
			// Collect the discarded database now, so that its garbage
			// does not count into the next set-up's memory peak at a
			// moment the collector happens to choose.
			runtime.GC()
		}
		dbDir = filepath.Join(dataDir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		d, total, st, err := setupOnce(w, dbDir)
		if err != nil {
			return nil, err
		}
		db, setup = d, st
		speed, _ := ref.factor(start, total)
		setupSpeeds = append(setupSpeeds, speed)
		setupSecs = append(setupSecs, total.Seconds()/speed)
		indexSecs = append(indexSecs, st.indexBuild.Seconds()/speed)
	}
	create := db.Metrics().ODCI.Callbacks[obs.CbCreate.String()]
	setup.odciCreate, setup.odciCreateCalls = time.Duration(create.Nanos), create.Calls
	if opts := w.options(filepath.Join(dbDir, "db")); opts.CacheSizePages != 0 {
		// A workload that sizes the pool below its data restarts the
		// database after the load: under no-steal the pool grows past
		// its target to hold the load's dirty pages and never shrinks,
		// so only a fresh pool has the configured size.
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("restart after set-up: %w", err)
		}
		if db, err = extdb.Open(opts); err != nil {
			return nil, fmt.Errorf("restart after set-up: %w", err)
		}
		if err := w.install(db); err != nil {
			return nil, err
		}
	}
	closed := false
	defer func() {
		if !closed {
			_ = db.Close() // an earlier error is already being returned
		}
	}()

	clients := w.clients(db)
	// peak_rss_mb is the peak while serving. Set-up has its own memory
	// metric: its peak is one allocation burst caught at whatever phase
	// the collector is in, where the serving peak is the envelope of
	// hundreds of collection cycles and repeats from run to run. The
	// set-up's garbage goes back to the operating system first, or the
	// watermark would restart from it.
	setupPeakRSS := peakRSSMB()
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		rep.Notes = append(rep.Notes, "cannot reset VmHWM: peak_rss_mb includes set-up")
	}
	warm := runWindow(db, clients, cfg.warmup, false, 0)
	if warm.failed > 0 {
		fail("warm-up: %d of %d operations failed (%s)", warm.failed, warm.attempted, warm.firstFail)
	}

	measure := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced *window
	if cfg.trace {
		// The untraced third is the reference for the tracing overhead
		// and supplies the report's end-to-end metrics.
		plain = runWindow(db, clients, measure/3, false, 0)
		traced = runWindow(db, clients, measure-measure/3, true, int(plain.attempted))
	} else {
		plain = runWindow(db, clients, measure, false, 0)
	}
	servingPeakRSS := peakRSSMB()
	// The guard looks at the whole measured period, which a traced run
	// splits in two.
	last := plain
	rep.Attempted, rep.Failed = plain.attempted, plain.failed
	if traced != nil {
		last = traced
		rep.Attempted += traced.attempted
		rep.Failed += traced.failed
	}
	for _, win := range []*window{plain, traced} {
		if win != nil && win.failed > 0 {
			fail("%d of %d operations failed, first: %s", win.failed, win.attempted, win.firstFail)
		}
	}
	for _, v := range w.guard(diffMetrics(plain.before, last.after)) {
		fail("separation guard: %s", v)
	}

	// A read-only window leaves the write metrics without a sample, so
	// one writer follows it, untraced and outside what the guard saw.
	writeWin := plain
	if wc := w.writers(db); wc != nil {
		writeWin = runWindow(db, wc, cfg.writes, false, 0)
		rep.Attempted += writeWin.attempted
		rep.Failed += writeWin.failed
		if writeWin.failed > 0 {
			fail("write phase: %d of %d operations failed, first: %s", writeWin.failed, writeWin.attempted, writeWin.firstFail)
		}
	}

	refStopped = true
	if err := ref.stop(); err != nil {
		return nil, err
	}

	// Probes run against the live database, before it is closed.
	var probes []metric
	if cfg.trace {
		probes, err = runProbes(w, db, filepath.Join(dataDir, "probe"))
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	if err := w.verify(db); err != nil {
		fail("oracle after the window: %v", err)
	}
	closed = true
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	disk, err := diskBytes(filepath.Join(dbDir, "db"))
	if err != nil {
		return nil, err
	}
	re, err := extdb.Open(w.options(filepath.Join(dbDir, "db")))
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := w.install(re); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := w.verify(re); err != nil {
		fail("oracle after reopen: %v", err)
	}
	if err := re.Close(); err != nil {
		return nil, fmt.Errorf("close after reopen: %w", err)
	}

	// End-to-end metrics come from the set-ups, the untraced window and
	// the write phase, never from the traced window. Their timings are
	// divided by the machine's speed factor over the interval they were
	// taken in (see reference.go).
	reads := plain.latencies(func(k opKind) bool { return !k.isWrite() })
	writes := writeWin.latencies(opKind.isWrite)
	speed, speedN := ref.factor(plain.epoch, plain.elapsed)
	writeSpeed, writeSpeedN := ref.factor(writeWin.epoch, writeWin.elapsed)
	if speedN == 0 || writeSpeedN == 0 {
		rep.Notes = append(rep.Notes, "no reference sample in a measured interval: its timings are not scaled")
	}
	add := func(name, unit string, v float64, n int) {
		rep.Metrics = append(rep.Metrics, metric{Name: name, Unit: unit, Value: v, Samples: n})
	}
	add("setup_s", "s", median(setupSecs), len(setupSecs))
	add("index_build_s", "s", median(indexSecs), len(indexSecs))
	add("read_ops_per_s", "1/s", float64(len(reads))/plain.elapsed.Seconds()*speed, len(reads))
	add("write_ops_per_s", "1/s", float64(len(writes))/writeWin.elapsed.Seconds()*writeSpeed, len(writes))
	add("read_p50_ms", "ms", percentile(reads, 0.50)/speed, len(reads))
	add("read_p95_ms", "ms", percentile(reads, 0.95)/speed, len(reads))
	add("write_p50_ms", "ms", percentile(writes, 0.50)/writeSpeed, len(writes))
	add("write_p95_ms", "ms", percentile(writes, 0.95)/writeSpeed, len(writes))
	failed, attempted := plain.failed, plain.attempted
	if writeWin != plain {
		failed, attempted = failed+writeWin.failed, attempted+writeWin.attempted
	}
	add("failed_ops_ratio", "ratio", ratio(float64(failed), float64(attempted)), int(attempted))
	add("write_amp", "ratio", ratio(float64(writeWin.counters.walBytes+writeWin.counters.writebacks*pageBytes), float64(writeWin.userBytes)), len(writes))
	add("space_amp", "ratio", ratio(float64(disk), float64(w.liveBytes())), 1)
	add("peak_rss_mb", "MiB", servingPeakRSS, 1)
	for _, cl := range []struct {
		name string
		n    int
	}{{"read", len(reads)}, {"write", len(writes)}} {
		if cl.n > 0 && !tailSupported(cl.n, 0.95) {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s_p95_ms rests on %d samples, fewer than ten beyond it", cl.name, cl.n))
		}
	}
	add("bench.setup_speed_factor", "ratio", median(setupSpeeds), len(setupSpeeds))
	add("bench.speed_factor", "ratio", speed, speedN)
	add("bench.write_speed_factor", "ratio", writeSpeed, writeSpeedN)
	add("bench.setup_peak_rss_mb", "MiB", setupPeakRSS, 1)
	add("bench.samples_read", "count", float64(len(reads)), len(reads))
	add("bench.samples_write", "count", float64(len(writes)), len(writes))
	add("bench.read_p99_ms", "ms", percentile(reads, 0.99)/speed, len(reads))
	add("bench.write_p99_ms", "ms", percentile(writes, 0.99)/writeSpeed, len(writes))
	checkFails := plain.checkFails
	if traced != nil {
		checkFails += traced.checkFails
	}
	if writeWin != plain {
		checkFails += writeWin.checkFails
	}
	add("bench.check_failures", "count", float64(checkFails), int(rep.Attempted))

	if traced != nil {
		rep.Metrics = append(rep.Metrics, layerMetrics(traced, setup)...)
		rep.Metrics = append(rep.Metrics, probes...)
		tracedSpeed, _ := ref.factor(traced.epoch, traced.elapsed)
		plainRate := float64(plain.attempted-plain.failed) / plain.elapsed.Seconds() * speed
		tracedRate := float64(traced.attempted-traced.failed) / traced.elapsed.Seconds() * tracedSpeed
		add("obs.trace_overhead_ratio", "ratio", ratio(plainRate-tracedRate, plainRate), int(traced.attempted))
		name := fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed)
		if err := writeChromeTrace(filepath.Join(cfg.outDir, name), traced.traces); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(log, "%s: %s\n", cfg.workload, n)
	}
	return rep, nil
}

// contractLine renders the last line of a run's standard output in the
// form the acceptance driver reads: the end-to-end metrics BENCHMARK.json
// lists for an untraced run, its per-layer metrics for a traced one.
func contractLine(rep *report, spec *benchSpec) (string, error) {
	want := spec.EndToEnd
	if rep.Traced {
		want = spec.PerLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, rep.Correct, rep.Attempted, rep.Failed)
	for i, s := range want {
		m, ok := rep.get(s.Name)
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names metric %q, which the run did not produce", s.Name)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, s.Name, formatFloat(m.Value), s.Unit)
	}
	b.WriteString("}}")
	return b.String(), nil
}
