package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
)

// EngineStats is the engine-level slice of a Metrics snapshot.
type EngineStats struct {
	// Selects counts executed SELECT statements (including callback-
	// session queries issued by cartridge code).
	Selects int64
	// TracedQueries counts SELECTs that ran with a QueryTrace attached
	// (EXPLAIN ANALYZE, QueryTraced, or a slow-query hook).
	TracedQueries int64
	// SlowQueries counts traces handed to the slow-query hook.
	SlowQueries int64
	// BgCheckpoints counts checkpoints completed by the background
	// checkpointer; BgCheckpointSkips counts its attempts that were
	// refused (a writer was admitted) or failed.
	BgCheckpoints     int64
	BgCheckpointSkips int64
}

// WorkspaceStats is the scan-context workspace slice of a Metrics
// snapshot (§2.2.3 return-handle transport).
type WorkspaceStats struct {
	Live      int // handles currently parked (nonzero implies a leak at rest)
	HighWater int // maximum simultaneous handles
}

// Metrics is a full engine observability snapshot: every layer's
// counters in one inert struct. Collect it with DB.Metrics. Every
// counter only goes up for the life of the DB (Workspace.Live is the one
// gauge), so an interval is the difference of two snapshots.
type Metrics struct {
	Pager storage.Stats
	// PagerShards is the per-shard buffer-pool breakdown (fetch/hit
	// counters per shard latch): skew across entries exposes a hot
	// shard that the aggregate hit rate would hide.
	PagerShards []storage.ShardStats
	Txn         txn.Stats
	Planner     obs.PlannerSnapshot
	ODCI        obs.ODCISnapshot
	Engine      EngineStats
	Exec        obs.ExecSnapshot
	Workspace   WorkspaceStats
	// Waits is the wait-event table: per-class blocked-time counts,
	// totals and maxima, plus the all-class duration histogram.
	Waits obs.WaitSnapshot
	// Conflicts counts write-conflict aborts, broken down per table.
	Conflicts obs.ConflictSnapshot
	// FlightEvents is the total number of events the flight recorder has
	// ever seen (a liveness gauge — the ring itself is read via
	// DB.FlightRecorder).
	FlightEvents int64
}

// Metrics snapshots every observability counter in the database.
func (db *DB) Metrics() Metrics {
	live, high := db.ws.Stats()
	var bgDone, bgSkip int64
	if db.ckpt != nil {
		bgDone = db.ckpt.checkpoints.Load()
		bgSkip = db.ckpt.skips.Load()
	}
	return Metrics{
		Pager:       db.PagerStats(),
		PagerShards: db.pager.ShardStats(),
		Txn:         db.txns.Stats(),
		Planner:     db.planner.Snapshot(),
		ODCI:        db.odci.Snapshot(),
		Engine: EngineStats{
			Selects:           db.selects.Load(),
			TracedQueries:     db.tracedQueries.Load(),
			SlowQueries:       db.slowQueries.Load(),
			BgCheckpoints:     bgDone,
			BgCheckpointSkips: bgSkip,
		},
		Exec:         db.execStats.Snapshot(),
		Workspace:    WorkspaceStats{Live: live, HighWater: high},
		Waits:        db.waits.Snapshot(),
		Conflicts:    db.conflicts.Snapshot(),
		FlightEvents: int64(db.flight.Len()),
	}
}

// minShardHitRate / maxShardHitRate bound the per-shard hit rates (the
// skew line in the \stats report).
func minShardHitRate(shards []storage.ShardStats) float64 {
	lo := 1.0
	for _, s := range shards {
		if r := s.HitRate(); r < lo {
			lo = r
		}
	}
	return lo
}

func maxShardHitRate(shards []storage.ShardStats) float64 {
	hi := 0.0
	for _, s := range shards {
		if r := s.HitRate(); r > hi {
			hi = r
		}
	}
	return hi
}

// SetSlowQueryHook installs fn to receive the QueryTrace of every
// non-callback SELECT whose wall time reaches threshold. While a hook is
// installed every query is traced (candidates recorded, operators
// instrumented), so install it only when the overhead is acceptable.
// A nil fn removes the hook.
func (db *DB) SetSlowQueryHook(threshold time.Duration, fn func(*obs.QueryTrace)) {
	if fn == nil {
		db.hookCfg.Store(nil)
		return
	}
	db.hookCfg.Store(&slowHookCfg{threshold: threshold, fn: fn})
}

// String renders the snapshot as the sectioned report the \stats
// meta-command prints.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pager:   fetches=%d hits=%d misses=%d (hit rate %.1f%%)\n",
		m.Pager.Fetches, m.Pager.Hits, m.Pager.Misses, m.Pager.HitRate()*100)
	fmt.Fprintf(&b, "         writes=%d evictions=%d allocs=%d\n",
		m.Pager.Writes, m.Pager.Evictions, m.Pager.Allocs)
	fmt.Fprintf(&b, "         lockWaits=%d lockWaitTime=%s\n",
		m.Pager.LockWaits, time.Duration(m.Pager.LockWaitNanos).Round(time.Microsecond))
	if len(m.PagerShards) > 0 {
		fmt.Fprintf(&b, "shards:  %d · hit-rate skew %.1f%%..%.1f%%\n",
			len(m.PagerShards), minShardHitRate(m.PagerShards)*100, maxShardHitRate(m.PagerShards)*100)
		for i, s := range m.PagerShards {
			fmt.Fprintf(&b, "  shard %2d: fetches=%d hits=%d misses=%d writes=%d evictions=%d (hit rate %.1f%%)\n",
				i, s.Fetches, s.Hits, s.Misses, s.Writes, s.Evictions, s.HitRate()*100)
		}
	}
	fmt.Fprintf(&b, "wal:     records=%d pages=%d commits=%d bytes=%d syncs=%d\n",
		m.Pager.WALRecords, m.Pager.WALPages, m.Pager.WALCommits, m.Pager.WALBytes, m.Pager.WALSyncs)
	fmt.Fprintf(&b, "         fullPages=%d deltaBytes=%d\n", m.Pager.WALFullPages, m.Pager.WALDeltaBytes)
	if m.Pager.WALSyncs > 0 {
		fmt.Fprintf(&b, "         groupedCommits=%d commitsPerFsync=%.2f\n",
			m.Pager.WALGroupedCommits, float64(m.Pager.WALGroupedCommits)/float64(m.Pager.WALSyncs))
	}
	fmt.Fprintf(&b, "txn:     begins=%d commits=%d rollbacks=%d\n",
		m.Txn.Begins, m.Txn.Commits, m.Txn.Rollbacks)
	fmt.Fprintf(&b, "engine:  selects=%d traced=%d slow=%d\n",
		m.Engine.Selects, m.Engine.TracedQueries, m.Engine.SlowQueries)
	if m.Engine.BgCheckpoints != 0 || m.Engine.BgCheckpointSkips != 0 {
		fmt.Fprintf(&b, "         bgCheckpoints=%d bgCheckpointSkips=%d\n",
			m.Engine.BgCheckpoints, m.Engine.BgCheckpointSkips)
	}
	fmt.Fprintf(&b, "exec:    %s\n", m.Exec.String())
	fmt.Fprintf(&b, "planner: plans=%d candidates=%d", m.Planner.Plans, m.Planner.Candidates)
	if len(m.Planner.ChosenByKind) > 0 {
		kinds := make([]string, 0, len(m.Planner.ChosenByKind))
		for k := range m.Planner.ChosenByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString(" chosen:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, m.Planner.ChosenByKind[k])
		}
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "workspace: live=%d highWater=%d\n", m.Workspace.Live, m.Workspace.HighWater)
	fmt.Fprintf(&b, "conflicts: %s\n", m.Conflicts.String())
	fmt.Fprintf(&b, "flight:  events=%d\n", m.FlightEvents)
	if len(m.Waits.Classes) > 0 {
		b.WriteString("waits (top by total time):\n")
		for _, line := range strings.Split(m.Waits.String(), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		fmt.Fprintf(&b, "  all-class histogram: waits=%d totalBlocked=%s\n",
			m.Waits.Durations.Count, time.Duration(m.Waits.Durations.Sum).Round(time.Microsecond))
	}
	if len(m.ODCI.Callbacks) > 0 {
		b.WriteString("odci callbacks:\n")
		for _, line := range strings.Split(strings.TrimRight(m.ODCI.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}
