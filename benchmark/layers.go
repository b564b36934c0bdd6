package main

import (
	"time"

	extdb "repro"
	"repro/internal/obs"
	"repro/internal/storage"
)

// walSegmentBytes is the size of one segment of the default file log.
const walSegmentBytes = storage.DefaultWALSegmentBytes

// liveWALSegments opens the closed database's log directory read-only
// enough to count the segments still on the live chain.
func liveWALSegments(dir string) (int, error) {
	sink, err := storage.OpenFileSegmentedSink(dir, 0)
	if err != nil {
		return 0, err
	}
	live, _ := sink.Segments()
	return live, sink.Close()
}

// counters is the difference of two DB.Metrics snapshots, flattened to
// the fields the per-layer metrics and the separation guard read.
type counters struct {
	fetches, hits, misses, writebacks, evictions int64
	latchWaitNanos                               int64
	shardFetches                                 []int64

	walRecords, walPages, walCommits, walBytes, walSyncs, walGrouped int64

	begins, commits, rollbacks int64

	plans, candidates, chosenDomain int64

	odci           map[obs.Callback]obs.CallbackStats
	fetchBatches   int64 // ODCIIndexFetch results observed
	fetchBatchRIDs int64 // row ids across them

	admitWaits                                                     int64
	admitNanos, mutNanos, fsyncNanos, appendNanos, tableLockNanos  int64
	bgCheckpoints, bgCheckpointSkips, conflictAborts, flightEvents int64
}

// odciCalls sums the invocation counts of the given callbacks.
func (c counters) odciCalls(cbs ...obs.Callback) int64 {
	var n int64
	for _, cb := range cbs {
		n += c.odci[cb].Calls
	}
	return n
}

func (c counters) odciNanos(cbs ...obs.Callback) int64 {
	var n int64
	for _, cb := range cbs {
		n += c.odci[cb].Nanos
	}
	return n
}

// allCallbacks is every ODCI routine the boundary observer counts.
var allCallbacks = []obs.Callback{
	obs.CbCreate, obs.CbAlter, obs.CbTruncate, obs.CbDrop, obs.CbInsert,
	obs.CbUpdate, obs.CbDelete, obs.CbStart, obs.CbFetch, obs.CbClose,
	obs.CbSelectivity, obs.CbIndexCost, obs.CbCollect, obs.CbStartParallel,
}

func diffMetrics(a, b extdb.Metrics) counters {
	wait := func(m extdb.Metrics, classes ...obs.WaitClass) (count, nanos int64) {
		for _, cl := range classes {
			w := m.Waits.Classes[cl.String()]
			count += w.Count
			nanos += w.TotalNanos
		}
		return
	}
	waitDelta := func(classes ...obs.WaitClass) (int64, int64) {
		c0, n0 := wait(a, classes...)
		c1, n1 := wait(b, classes...)
		return c1 - c0, n1 - n0
	}
	c := counters{
		fetches:        b.Pager.Fetches - a.Pager.Fetches,
		hits:           b.Pager.Hits - a.Pager.Hits,
		misses:         b.Pager.Misses - a.Pager.Misses,
		writebacks:     b.Pager.Writes - a.Pager.Writes,
		evictions:      b.Pager.Evictions - a.Pager.Evictions,
		latchWaitNanos: b.Pager.LockWaitNanos - a.Pager.LockWaitNanos,

		walRecords: b.Pager.WALRecords - a.Pager.WALRecords,
		walPages:   b.Pager.WALPages - a.Pager.WALPages,
		walCommits: b.Pager.WALCommits - a.Pager.WALCommits,
		walBytes:   b.Pager.WALBytes - a.Pager.WALBytes,
		walSyncs:   b.Pager.WALSyncs - a.Pager.WALSyncs,
		walGrouped: b.Pager.WALGroupedCommits - a.Pager.WALGroupedCommits,

		begins:    b.Txn.Begins - a.Txn.Begins,
		commits:   b.Txn.Commits - a.Txn.Commits,
		rollbacks: b.Txn.Rollbacks - a.Txn.Rollbacks,

		plans:        b.Planner.Plans - a.Planner.Plans,
		candidates:   b.Planner.Candidates - a.Planner.Candidates,
		chosenDomain: b.Planner.ChosenByKind["DOMAIN"] - a.Planner.ChosenByKind["DOMAIN"],

		odci:           map[obs.Callback]obs.CallbackStats{},
		fetchBatches:   b.ODCI.FetchBatch.Count - a.ODCI.FetchBatch.Count,
		fetchBatchRIDs: b.ODCI.FetchBatch.Sum - a.ODCI.FetchBatch.Sum,

		bgCheckpoints:     b.Engine.BgCheckpoints - a.Engine.BgCheckpoints,
		bgCheckpointSkips: b.Engine.BgCheckpointSkips - a.Engine.BgCheckpointSkips,
		conflictAborts:    b.Conflicts.Aborts - a.Conflicts.Aborts,
		flightEvents:      b.FlightEvents - a.FlightEvents,
	}
	for i := range b.PagerShards {
		d := b.PagerShards[i].Fetches
		if i < len(a.PagerShards) {
			d -= a.PagerShards[i].Fetches
		}
		c.shardFetches = append(c.shardFetches, d)
	}
	for _, cb := range allCallbacks {
		x, y := a.ODCI.Callbacks[cb.String()], b.ODCI.Callbacks[cb.String()]
		if y.Calls != x.Calls {
			c.odci[cb] = obs.CallbackStats{Calls: y.Calls - x.Calls, Nanos: y.Nanos - x.Nanos}
		}
	}
	c.admitWaits, c.admitNanos = waitDelta(obs.WaitAdmissionShared, obs.WaitAdmissionExclusive)
	_, c.mutNanos = waitDelta(obs.WaitMutationWindow)
	_, c.fsyncNanos = waitDelta(obs.WaitWALGroupFsync)
	_, c.appendNanos = waitDelta(obs.WaitWALAppend)
	_, c.tableLockNanos = waitDelta(obs.WaitTableLock)
	return c
}

func us(nanos int64) float64 { return float64(nanos) / 1e3 }
func ms(nanos int64) float64 { return float64(nanos) / 1e6 }

// layerMetrics derives the counter-based (a) and span-based (b)
// per-layer metrics of one traced window. ops is the number of
// operations the window completed.
func layerMetrics(w *window, setup setupStats) []metric {
	c := w.counters
	secs := w.elapsed.Seconds()
	ops := float64(w.attempted - w.failed)
	var out []metric
	add := func(name, unit string, v float64, n int64) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, Samples: int(n)})
	}
	perCall := func(nanos, calls int64) float64 { return ratio(us(nanos), float64(calls)) }

	// engine
	var tr struct {
		queries, scanRows, scanBatches, rowsReturned int64
		querySelf, scanTime, upperTime               time.Duration
	}
	for _, t := range w.traces {
		tr.queries += t.queries
		tr.scanRows += t.scanRows
		tr.scanBatches += t.scanBatches
		tr.rowsReturned += t.rowsReturned
		tr.querySelf += t.querySelf
		tr.scanTime += t.scanTime
		tr.upperTime += t.upperTime
	}
	agg := mergeAgg(w.traces)
	commit := agg["engine.Commit"]
	add("engine.query_self_us", "us", perCall(int64(tr.querySelf), tr.queries), tr.queries)
	add("engine.plan_candidates_per_plan", "ratio", ratio(float64(c.candidates), float64(c.plans)), c.plans)
	// Over the client's queries, not over Planner.Plans: the cartridges'
	// own callback queries are planned too and never choose DOMAIN.
	add("engine.chosen_domain_ratio", "ratio", ratio(float64(c.chosenDomain), float64(tr.queries)), tr.queries)
	add("engine.commit_us", "us", perCall(int64(commit.Total), commit.Count), commit.Count)
	add("engine.wait_admission_ms", "ms/s", ms(c.admitNanos)/secs, c.admitWaits)
	add("engine.wait_mutation_window_ms", "ms/s", ms(c.mutNanos)/secs, 1)
	add("engine.bg_checkpoints", "count", float64(c.bgCheckpoints), 1)
	add("engine.bg_checkpoint_skips", "count", float64(c.bgCheckpointSkips), 1)
	add("engine.conflict_retries", "count", float64(w.retries), 1)

	// exec
	add("exec.scan_us", "us", perCall(int64(tr.scanTime), tr.queries), tr.queries)
	add("exec.upper_us", "us", perCall(int64(tr.upperTime), tr.queries), tr.queries)
	add("exec.rows_per_batch", "ratio", ratio(float64(tr.scanRows), float64(tr.scanBatches)), tr.scanBatches)
	add("exec.rows_examined_per_row_returned", "ratio", ratio(float64(tr.scanRows), float64(tr.rowsReturned)), tr.rowsReturned)

	// extidx
	scans := c.odciCalls(obs.CbStart)
	statCalls := c.odciCalls(obs.CbSelectivity, obs.CbIndexCost)
	add("extidx.start_us_per_scan", "us", perCall(c.odciNanos(obs.CbStart), scans), scans)
	add("extidx.fetch_us_per_call", "us", perCall(c.odciNanos(obs.CbFetch), c.odciCalls(obs.CbFetch)), c.odciCalls(obs.CbFetch))
	add("extidx.close_us_per_scan", "us", perCall(c.odciNanos(obs.CbClose), scans), scans)
	add("extidx.fetch_calls_per_scan", "ratio", ratio(float64(c.odciCalls(obs.CbFetch)), float64(scans)), scans)
	add("extidx.rids_per_fetch", "ratio", ratio(float64(c.fetchBatchRIDs), float64(c.fetchBatches)), c.fetchBatches)
	add("extidx.stats_us_per_plan", "us", perCall(c.odciNanos(obs.CbSelectivity, obs.CbIndexCost), c.plans), statCalls)
	for _, m := range []struct {
		name string
		cb   obs.Callback
	}{{"insert", obs.CbInsert}, {"update", obs.CbUpdate}, {"delete", obs.CbDelete}} {
		add("extidx."+m.name+"_us_per_call", "us", perCall(c.odciNanos(m.cb), c.odciCalls(m.cb)), c.odciCalls(m.cb))
	}
	add("extidx.create_s", "s", setup.odciCreate.Seconds(), setup.odciCreateCalls)
	// Callback wall over operation wall: with two clients the
	// denominator is two client-seconds per second.
	var opWall time.Duration
	for _, s := range w.ops {
		opWall += s.lat
	}
	add("extidx.callback_share", "ratio", ratio(float64(c.odciNanos(allCallbacks...)), float64(opWall)), c.odciCalls(allCallbacks...))

	// cartridges
	text, spatial := w.latencies(opKind.isText), w.latencies(func(k opKind) bool { return k == kSpatial })
	add("cartridge.text.query_p50_ms", "ms", percentile(text, 0.50), int64(len(text)))
	add("cartridge.text.query_p95_ms", "ms", percentile(text, 0.95), int64(len(text)))
	add("cartridge.spatial.query_p50_ms", "ms", percentile(spatial, 0.50), int64(len(spatial)))
	add("cartridge.spatial.query_p95_ms", "ms", percentile(spatial, 0.95), int64(len(spatial)))
	add("cartridge.text.build_docs_per_s", "1/s", ratio(float64(setup.textDocs), setup.textBuild.Seconds()), int64(setup.textDocs))
	add("cartridge.spatial.build_geoms_per_s", "1/s", ratio(float64(setup.spatialGeoms), setup.spatialBuild.Seconds()), int64(setup.spatialGeoms))

	// storage.pager
	add("storage.pager.fetches_per_op", "ratio", ratio(float64(c.fetches), ops), int64(ops))
	add("storage.pager.hit_ratio", "ratio", ratio(float64(c.hits), float64(c.fetches)), c.fetches)
	add("storage.pager.misses_per_op", "ratio", ratio(float64(c.misses), ops), int64(ops))
	add("storage.pager.evictions_per_op", "ratio", ratio(float64(c.evictions), ops), int64(ops))
	add("storage.pager.writebacks_per_op", "ratio", ratio(float64(c.writebacks), ops), int64(ops))
	add("storage.pager.wait_latch_ms", "ms/s", ms(c.latchWaitNanos)/secs, 1)
	add("storage.pager.shard_skew", "ratio", shardSkew(c.shardFetches), int64(len(c.shardFetches)))

	// storage.wal
	add("storage.wal.bytes_per_commit", "B", ratio(float64(c.walBytes), float64(c.walCommits)), c.walCommits)
	add("storage.wal.page_records_per_commit", "ratio", ratio(float64(c.walPages), float64(c.walCommits)), c.walCommits)
	add("storage.wal.commits_per_fsync", "ratio", ratio(float64(c.walGrouped), float64(c.walSyncs)), c.walSyncs)
	add("storage.wal.fsyncs_per_s", "1/s", float64(c.walSyncs)/secs, c.walSyncs)
	add("storage.wal.wait_group_fsync_ms", "ms/s", ms(c.fsyncNanos)/secs, c.walSyncs)
	add("storage.wal.wait_append_ms", "ms/s", ms(c.appendNanos)/secs, c.walCommits)

	// txn
	add("txn.begins", "1/s", float64(c.begins)/secs, c.begins)
	add("txn.commits", "1/s", float64(c.commits)/secs, c.commits)
	add("txn.rollbacks", "1/s", float64(c.rollbacks)/secs, c.rollbacks)
	add("txn.wait_table_lock_ms", "ms/s", ms(c.tableLockNanos)/secs, 1)

	add("obs.flight_events", "count", float64(c.flightEvents), 1)
	return out
}

// shardSkew is the busiest buffer-pool shard's fetch count over the mean
// shard's: 1 is perfectly even.
func shardSkew(fetches []int64) float64 {
	var sum, max int64
	for _, f := range fetches {
		sum += f
		if f > max {
			max = f
		}
	}
	return ratio(float64(max)*float64(len(fetches)), float64(sum))
}
