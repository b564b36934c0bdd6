package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	extdb "repro"
	"repro/internal/btree"
	"repro/internal/cartridge/text"
	"repro/internal/extidx"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wordgen"
)

const pageBytes = storage.PageSize

// Probe sizes: fixed counts, so a probe's cost is the same on every run
// and its number moves only when the layer does.
const (
	probeParseRounds = 300
	probeDirectScans = 300
	probeMaxRows     = 20000
	probeWALPages    = 256
	probeWALSyncs    = 32
	probeMissPool    = 16 // frames of the pager the miss probe reads through
)

// runProbes times fixed-count calls straight into single layers, after
// the window: against the workload's own database where the layer needs
// one (the cartridge scan), otherwise against a standalone instance of
// the layer under dir, loaded with the workload's generated rows.
func runProbes(w workload, db *extdb.DB, dir string) ([]metric, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out []metric
	// add reports total spread over n calls, in units of unitNanos
	// nanoseconds (1e3 for microseconds per call, 1 for nanoseconds).
	add := func(name, unit string, total time.Duration, n int, unitNanos float64) {
		out = append(out, metric{Name: name, Unit: unit, Value: ratio(float64(total), float64(n)*unitNanos), Samples: n})
	}

	// sql: parse every statement text of the mix.
	stmts := w.statements()
	start := time.Now()
	for i := 0; i < probeParseRounds; i++ {
		for _, s := range stmts {
			if _, err := sql.Parse(s); err != nil {
				return nil, fmt.Errorf("parse %q: %w", s, err)
			}
		}
	}
	add("sql.parse_us", "us", time.Since(start), probeParseRounds*len(stmts), 1e3)

	// cartridge.text: Start/Fetch/Close straight through the registry,
	// bypassing planner and executor.
	scans, scanTime, err := probeTextScan(db)
	if err != nil {
		return nil, err
	}
	add("cartridge.text.direct_scan_us", "us", scanTime, scans, 1e3)

	keys, rows := w.probeRows()
	if len(rows) > probeMaxRows {
		keys, rows = keys[:probeMaxRows], rows[:probeMaxRows]
	}

	// storage.heap and storage.pager over a file backend of their own.
	backend, err := storage.OpenFileBackend(filepath.Join(dir, "heap.db"))
	if err != nil {
		return nil, err
	}
	pager := storage.NewPagerShards(backend, 4096, 0)
	created, err := storage.CreateHeap(pager)
	if err != nil {
		return nil, err
	}
	heap, err := storage.OpenHeap(pager, created.FirstPage())
	if err != nil {
		return nil, err
	}
	rids := make([]storage.RID, 0, len(rows))
	start = time.Now()
	for _, row := range rows {
		//vetx:ignore layering -- probe: a standalone pager and heap of its own, shared with no engine
		rid, err := heap.Insert(row)
		if err != nil {
			return nil, err
		}
		rids = append(rids, rid)
	}
	add("storage.heap.insert_us", "us", time.Since(start), len(rows), 1e3)
	start = time.Now()
	for i := 0; i+64 <= len(rids); i += 64 {
		if _, err := heap.GetBatch(rids[i : i+64]); err != nil {
			return nil, err
		}
	}
	add("storage.heap.getbatch_ns_per_row", "ns", time.Since(start), len(rids)/64*64, 1)
	scanned := 0
	start = time.Now()
	err = heap.Scan(func(storage.RID, []byte) (bool, error) { scanned++; return true, nil })
	if err != nil {
		return nil, err
	}
	add("storage.heap.scan_ns_per_row", "ns", time.Since(start), scanned, 1)
	pages := heap.PageList()
	const hitRounds = 50
	start = time.Now()
	for r := 0; r < hitRounds; r++ {
		for _, id := range pages {
			//vetx:ignore layering -- probe: a standalone pager and heap of its own, shared with no engine
			pg, err := pager.Fetch(id)
			if err != nil {
				return nil, err
			}
			//vetx:ignore layering -- probe: a standalone pager and heap of its own, shared with no engine
			pager.Unpin(pg, false)
		}
	}
	add("storage.pager.fetch_hit_ns", "ns", time.Since(start), hitRounds*len(pages), 1)
	//vetx:ignore layering -- probe: a standalone pager and heap of its own, shared with no engine
	if err := pager.Close(); err != nil {
		return nil, err
	}
	// Misses: the same file through a pool far smaller than the heap, so
	// a sequential pass evicts every page before it comes round again.
	if backend, err = storage.OpenFileBackend(filepath.Join(dir, "heap.db")); err != nil {
		return nil, err
	}
	small := storage.NewPagerShards(backend, probeMissPool, 0)
	start = time.Now()
	for r := 0; r < 2; r++ {
		for _, id := range pages {
			//vetx:ignore layering -- probe: a standalone pager and heap of its own, shared with no engine
			pg, err := small.Fetch(id)
			if err != nil {
				return nil, err
			}
			//vetx:ignore layering -- probe: a standalone pager and heap of its own, shared with no engine
			small.Unpin(pg, false)
		}
	}
	missTime := time.Since(start)
	misses := int(small.Stats().Misses)
	add("storage.pager.fetch_miss_us", "us", missTime, misses, 1e3)
	//vetx:ignore layering -- probe: a standalone pager and heap of its own, shared with no engine
	if err := small.Close(); err != nil {
		return nil, err
	}

	// btree over a pager of its own.
	tp := storage.NewPager(storage.NewMemBackend(), 4096)
	tree, err := btree.Create(tp)
	if err != nil {
		return nil, err
	}
	val := []byte{0, 0, 0, 0, 0, 0, 0, 1}
	start = time.Now()
	for _, k := range keys {
		if err := tree.Set(k, val); err != nil {
			return nil, err
		}
	}
	add("btree.set_us", "us", time.Since(start), len(keys), 1e3)
	start = time.Now()
	for _, k := range keys {
		if _, ok, err := tree.Get(k); err != nil || !ok {
			return nil, fmt.Errorf("btree probe: key missing (err %v)", err)
		}
	}
	add("btree.get_us", "us", time.Since(start), len(keys), 1e3)
	walked := 0
	start = time.Now()
	it := tree.Seek(keys[0])
	for ; it.Valid(); it.Next() {
		walked++
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	add("btree.seek_next_ns_per_key", "ns", time.Since(start), walked, 1)
	height, err := tree.Height()
	if err != nil {
		return nil, err
	}
	out = append(out, metric{Name: "btree.height", Unit: "count", Value: float64(height), Samples: len(keys)})

	// storage.wal over a segmented file sink in the same directory as
	// the database: what a page append and an fsync cost on this box.
	sink, err := storage.OpenFileSegmentedSink(filepath.Join(dir, "probe.wal"), 0)
	if err != nil {
		return nil, err
	}
	wal := storage.NewWAL(sink, 0, 0)
	page := make([]byte, pageBytes)
	start = time.Now()
	for i := 0; i < probeWALPages; i++ {
		if err := wal.AppendPage(storage.PageID(i+1), page); err != nil {
			return nil, err
		}
	}
	add("storage.wal.append_page_us", "us", time.Since(start), probeWALPages, 1e3)
	var syncTime time.Duration
	for i := 0; i < probeWALSyncs; i++ {
		if err := wal.AppendPage(storage.PageID(i+1), page); err != nil {
			return nil, err
		}
		start = time.Now()
		if err := wal.Sync(); err != nil {
			return nil, err
		}
		syncTime += time.Since(start)
	}
	add("storage.wal.sync_us", "us", syncTime, probeWALSyncs, 1e3)
	return out, wal.Close()
}

// probeTextScan drives the text cartridge's scan routines directly when
// the database has the docs text index; otherwise it reports no scans.
func probeTextScan(db *extdb.DB) (scans int, total time.Duration, err error) {
	if _, ok := db.Catalog().Index("DOC_TEXT"); !ok {
		return 0, 0, nil
	}
	methods, ok := db.Registry().Methods(text.MethodsName)
	if !ok {
		return 0, 0, fmt.Errorf("text index methods not registered")
	}
	srv := db.NewSession().CallbackServer(extidx.ModeScan, "DOCS")
	info := extidx.IndexInfo{IndexName: "DOC_TEXT", TableName: "DOCS", ColumnName: "BODY", ColumnKind: types.KindString}
	start := time.Now()
	for i := 0; i < probeDirectScans; i++ {
		call := extidx.OperatorCall{
			Name:  text.OpContains,
			Args:  []types.Value{types.Str(wordgen.Word(rareLo + i*(rareHi-rareLo)/probeDirectScans))},
			Relop: extidx.CmpEQ, Bound: types.Num(1),
		}
		st, err := methods.Start(srv, info, call)
		if err != nil {
			return 0, 0, err
		}
		for {
			res, next, err := methods.Fetch(srv, st, 64)
			if err != nil {
				return 0, 0, err
			}
			st = next
			if res.Done {
				break
			}
		}
		if err := methods.Close(srv, st); err != nil {
			return 0, 0, err
		}
	}
	return probeDirectScans, time.Since(start), nil
}
