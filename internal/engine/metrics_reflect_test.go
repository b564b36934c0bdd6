package engine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/extidx"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// These tests walk the Metrics struct with reflection so that adding an
// observability field that can go down, or that Metrics.String does not
// render, fails CI instead of corrupting interval reads or hiding the
// counter from \stats.

// fillLeaves sets every exported numeric leaf under v to a distinct
// nonzero value, creating one "K"-keyed entry per map and a single
// element per slice.
func fillLeaves(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).PkgPath != "" {
				continue // unexported: not part of the snapshot contract
			}
			fillLeaves(v.Field(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		elem := reflect.New(v.Type().Elem()).Elem()
		fillLeaves(elem, next)
		v.SetMapIndex(reflect.ValueOf("K").Convert(v.Type().Key()), elem)
	case reflect.Slice:
		elem := reflect.New(v.Type().Elem()).Elem()
		fillLeaves(elem, next)
		v.Set(reflect.Append(reflect.MakeSlice(v.Type(), 0, 1), elem))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(*next * 7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(uint64(*next * 7))
	case reflect.Float32, reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	}
}

func filledMetrics() Metrics {
	var m Metrics
	var next int64
	fillLeaves(reflect.ValueOf(&m).Elem(), &next)
	return m
}

// collectLeaves returns path -> value for every exported numeric leaf.
// Histogram buckets are keyed by upper bound, not position, so a bucket
// that first fills between two snapshots does not shift the others.
func collectLeaves(path string, v reflect.Value, out map[string]float64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.PkgPath != "" {
				continue
			}
			collectLeaves(path+"."+f.Name, v.Field(i), out)
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			collectLeaves(fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if b, ok := v.Index(i).Interface().(obs.HistogramBucket); ok {
				out[fmt.Sprintf("%s[<=%d]", path, b.UpperBound)] = float64(b.Count)
				continue
			}
			collectLeaves(fmt.Sprintf("%s[%d]", path, i), v.Index(i), out)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[path] = float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[path] = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		out[path] = v.Float()
	}
}

// leafPaths lists the leaves of a filled Metrics in deterministic walk
// order (the order bumpLeaf visits them).
func leafPaths(m Metrics) []string {
	var paths []string
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if f.PkgPath != "" {
					continue
				}
				walk(path+"."+f.Name, v.Field(i))
			}
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
			for _, k := range keys {
				walk(fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			paths = append(paths, path)
		}
	}
	walk("Metrics", reflect.ValueOf(&m).Elem())
	return paths
}

// bumpLeaf adds a large delta to the target-th leaf in walk order
// (large, so values rendered as microsecond-rounded durations visibly
// change too). Map elements are copied, bumped, and stored back.
func bumpLeaf(v reflect.Value, target int, idx *int) bool {
	const delta = int64(1) << 32 // ~4.3 s when interpreted as nanos
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).PkgPath != "" {
				continue
			}
			if bumpLeaf(v.Field(i), target, idx) {
				return true
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			elem := reflect.New(v.Type().Elem()).Elem()
			elem.Set(v.MapIndex(k))
			if bumpLeaf(elem, target, idx) {
				v.SetMapIndex(k, elem)
				return true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if bumpLeaf(v.Index(i), target, idx) {
				return true
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if *idx == target {
			v.SetInt(v.Int() + delta)
			*idx++
			return true
		}
		*idx++
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if *idx == target {
			v.SetUint(v.Uint() + uint64(delta))
			*idx++
			return true
		}
		*idx++
	case reflect.Float32, reflect.Float64:
		if *idx == target {
			v.SetFloat(v.Float() + float64(delta))
			*idx++
			return true
		}
		*idx++
	}
	return false
}

// TestMetricsCountersAreMonotonic: across a workload that touches every
// layer — DDL, autocommit and explicit-transaction DML on a
// domain-indexed table, a LOB write through the callback server, a
// domain query, a degree-2 parallel scan and a checkpoint — no numeric
// leaf of Metrics (map entries and histogram buckets included) may go
// down. That is what lets every reader take an interval as the
// difference of two snapshots. Workspace.Live is the one true gauge.
func TestMetricsCountersAreMonotonic(t *testing.T) {
	db, s := kwSetup(t)
	before := db.Metrics()

	mustExec(t, s, `CREATE TABLE Wide(id NUMBER, pad VARCHAR2)`)
	mustExec(t, s, `INSERT INTO Docs VALUES (300, 'oracle unix autocommit')`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE Docs SET body = 'unix only' WHERE id = 300`)
	mustExec(t, s, `DELETE FROM Docs WHERE id = 1`)
	for i := 0; i < 600; i++ {
		mustExec(t, s, `INSERT INTO Wide VALUES (?, 'x')`, types.Int(int64(i)))
	}
	mustExec(t, s, `COMMIT`)

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	lobs := s.server(extidx.ModeDefinition, "").LOBs()
	id, err := lobs.Create()
	if err != nil {
		t.Fatal(err)
	}
	b, err := lobs.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt(make([]byte, 3*storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	mustQuery(t, s, `SELECT id FROM Docs WHERE HasKw(body, 'unix')`)
	s.SetParallel(2)
	if plan := flattenPlan(mustQuery(t, s, `EXPLAIN ANALYZE SELECT COUNT(*) FROM Wide`)); !strings.Contains(plan, "parallel=") {
		t.Fatalf("scan did not go parallel:\n%s", plan)
	}
	s.SetParallel(1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()

	was, now := map[string]float64{}, map[string]float64{}
	collectLeaves("Metrics", reflect.ValueOf(&before).Elem(), was)
	collectLeaves("Metrics", reflect.ValueOf(&after).Elem(), now)
	if len(was) < 40 {
		t.Fatalf("walker found only %d leaves — reflection walk broken?", len(was))
	}
	for path, v := range was {
		if path == "Metrics.Workspace.Live" {
			continue
		}
		if got, ok := now[path]; !ok || got < v {
			t.Errorf("%s went down: %v -> %v", path, v, got)
		}
	}
	// Each workload step must have moved a counter, or the check above
	// passes vacuously.
	for _, path := range []string{
		"Metrics.Txn.Commits",
		"Metrics.Pager.Allocs",
		"Metrics.Pager.Writes",
		"Metrics.Planner.Plans",
		"Metrics.ODCI.Callbacks[ODCIIndexUpdate].Calls",
		"Metrics.ODCI.Callbacks[ODCIIndexFetch].Calls",
		"Metrics.Exec.Exchanges",
	} {
		if now[path] <= was[path] {
			t.Errorf("%s did not grow over the workload: %v -> %v", path, was[path], now[path])
		}
	}
}

// TestMetricsStringCoversEveryField: changing any numeric leaf of a
// fully-populated snapshot must change the rendered report. An
// invariant output means the field is invisible to \stats. Histogram
// bucket entries are exempt: only a histogram's Count/Sum render (the
// per-bucket distribution is detail String deliberately elides).
func TestMetricsStringCoversEveryField(t *testing.T) {
	base := filledMetrics()
	baseOut := base.String()
	paths := leafPaths(base)
	for target, path := range paths {
		if strings.Contains(path, ".Buckets[") {
			continue
		}
		m := filledMetrics()
		idx := 0
		if !bumpLeaf(reflect.ValueOf(&m).Elem(), target, &idx) {
			t.Fatalf("walker never reached leaf %d (%s)", target, path)
		}
		if m.String() == baseOut {
			t.Errorf("Metrics.String() does not render %s (output unchanged when it changes)", path)
		}
	}
}
