package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wordgen"
)

// TestMain lets the test binary serve as the reference process, the way
// the benchmark's own binary does: startReference runs os.Executable.
func TestMain(m *testing.M) {
	if os.Getenv(referenceEnv) != "" {
		os.Exit(referenceMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

func TestReferenceProcess(t *testing.T) {
	start := time.Now()
	ref, err := startReference()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for deadline := start.Add(5 * time.Second); n < 3 && time.Now().Before(deadline); {
		time.Sleep(referenceEvery)
		_, n = ref.factor(start, time.Since(start))
	}
	if err := ref.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	f, n := ref.factor(start, time.Since(start))
	if n < 3 || f <= 0 {
		t.Errorf("factor %v from %d samples, want a positive factor from at least 3", f, n)
	}
	if f, n := ref.factor(start.Add(-time.Hour), time.Minute); f != 1 || n != 0 {
		t.Errorf("an interval without samples gave factor %v from %d samples, want 1 from 0", f, n)
	}
}

// streams renders the first n operations each workload generates for a
// seed, one string per workload.
func streams(seed int64, n int) map[string]string {
	out := map[string]string{}
	var b strings.Builder

	rng := clientRNG(seed, 0)
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, genSearchOp(rng))
	}
	out["domain_search"], b = b.String(), strings.Builder{}

	oc := newOLTPCommit(seed, 0.01).newClient(nil, 1)
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, oc.gen())
	}
	out["oltp_commit"], b = b.String(), strings.Builder{}

	mm := newMixedMaintain(seed, 0.02)
	rng, words := clientRNG(seed, 0), wordgen.New(seed+1, textVocab)
	for i := 0; i < n; i++ {
		d := genDocWrite(rng, words, mm.docs.live, mm.docs.next)
		mm.docs.apply(d)
		fmt.Fprintln(&b, d)
	}
	out["mixed_maintain"], b = b.String(), strings.Builder{}

	as := newAnalyticScan(seed, 0.02)
	rng = clientRNG(seed, 1)
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, as.genScanOp(rng))
	}
	out["analytic_scan"] = b.String()
	return out
}

func TestSameSeedSameOperationStream(t *testing.T) {
	a, b, other := streams(7, 400), streams(7, 400), streams(8, 400)
	for _, name := range workloadNames {
		if a[name] == "" {
			t.Fatalf("%s: empty stream", name)
		}
		if a[name] != b[name] {
			t.Errorf("%s: the same seed generated different operation streams", name)
		}
		if a[name] == other[name] {
			t.Errorf("%s: different seeds generated the same operation stream", name)
		}
	}
}

func TestPercentileAndSampleCountRule(t *testing.T) {
	var v []float64
	for i := 1; i <= 200; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 100}, {0.95, 190}, {0.99, 198}, {1, 200}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples should be 0")
	}
	// Ten samples must lie beyond the percentile.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.50, true}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %t, want %t", c.n, c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: us(0), Dur: us(100)},
		{ID: 2, Parent: 1, Name: "query", Start: us(10), Dur: us(50)},
		{ID: 3, Parent: 1, Name: "commit", Start: us(70), Dur: us(20)},
		// Children of the query overlap each other and overrun it.
		{ID: 4, Parent: 2, Name: "sort", Start: us(20), Dur: us(30)},
		{ID: 5, Parent: 2, Name: "scan", Start: us(40), Dur: us(40)},
	}
	want := []time.Duration{us(30), us(10), us(20), us(30), us(40)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre * 1.005, centre * 0.995}
	}
	noisy := []float64{60, 100, 140, 90, 115}
	for _, c := range []struct {
		name     string
		a, b     []float64
		higher   bool
		bound    float64
		absolute bool
		want     string
	}{
		{"latency up 30%", steady(100), steady(130), false, 0.10, false, "regressed"},
		{"latency down 30%", steady(100), steady(70), false, 0.10, false, "improved"},
		{"latency within bound", steady(100), steady(104), false, 0.10, false, "unchanged"},
		{"throughput down 30%", steady(100), steady(70), true, 0.10, false, "regressed"},
		{"throughput up 30%", steady(100), steady(130), true, 0.10, false, "improved"},
		{"spread wider than bound", noisy, noisy, false, 0.10, false, "unresolved"},
		{"noisy candidate hides the answer", steady(100), noisy, false, 0.10, false, "unresolved"},
		{"four times worse, far outside a wide spread", noisy, []float64{240, 400, 560, 360, 460}, false, 0.10, false, "regressed"},
		{"worse by less than a wide spread", noisy, []float64{72, 120, 168, 108, 138}, false, 0.10, false, "unresolved"},
		{"both zero", []float64{0, 0, 0}, []float64{0, 0, 0}, false, 0.10, false, "unchanged"},
		{"failures appear", []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, false, 0.001, true, "regressed"},
		{"failures stay absent", []float64{0, 0, 0}, []float64{0, 0, 0}, false, 0.001, true, "unchanged"},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, c.bound, c.absolute); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, readP50 float64) string {
		var b bytes.Buffer
		for i := 0; i < 3; i++ {
			rep := report{Workload: "domain_search", Correct: true, Metrics: []metric{
				{Name: "read_p50_ms", Unit: "ms", Value: readP50 * (1 + 0.01*float64(i)), Samples: 1000},
			}}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteString("\n{\"correct\": true}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow := write("a.json", 1.0), write("b.json", 1.5)
	var out bytes.Buffer
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", base, slow}, &out, io.Discard); code != 1 {
		t.Errorf("compare of a regression exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "read_p50_ms") {
		t.Errorf("compare output lacks the regressed row:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-spec", "../BENCHMARK.json", base, base}, &out, io.Discard); code != 0 {
		t.Errorf("compare of a file with itself exited %d, want 0\n%s", code, out.String())
	}
}

func TestSeparationGuard(t *testing.T) {
	odci := func(cbs ...obs.Callback) map[obs.Callback]obs.CallbackStats {
		m := map[obs.Callback]obs.CallbackStats{}
		for _, cb := range cbs {
			m[cb] = obs.CallbackStats{Calls: 10, Nanos: 1000}
		}
		return m
	}
	scans := odci(obs.CbStart, obs.CbFetch, obs.CbClose)
	ds := newDomainSearch(1, 0.01)
	if v := ds.guard(counters{odci: scans, chosenDomain: 10, plans: 10}); len(v) != 0 {
		t.Errorf("domain_search: healthy counters flagged: %v", v)
	}
	if v := ds.guard(counters{odci: scans, chosenDomain: 10, walBytes: 4096, walSyncs: 1}); len(v) != 1 {
		t.Errorf("domain_search: WAL work should be the one violation, got %v", v)
	}
	if v := ds.guard(counters{}); len(v) == 0 {
		t.Error("domain_search: idle extidx not flagged")
	}
	oc := newOLTPCommit(1, 0.01)
	if v := oc.guard(counters{walSyncs: 5, walBytes: 100, commits: 5}); len(v) != 0 {
		t.Errorf("oltp_commit: healthy counters flagged: %v", v)
	}
	if v := oc.guard(counters{walSyncs: 5, walBytes: 100, commits: 5, odci: scans}); len(v) != 1 {
		t.Errorf("oltp_commit: ODCI callbacks should be the one violation, got %v", v)
	}
	as := newAnalyticScan(1, 0.01)
	if v := as.guard(counters{misses: 10, evictions: 10}); len(v) != 0 {
		t.Errorf("analytic_scan: healthy counters flagged: %v", v)
	}
	if v := as.guard(counters{}); len(v) != 1 {
		t.Errorf("analytic_scan: a pager that never missed should be the one violation, got %v", v)
	}
	mm := newMixedMaintain(1, 0.01)
	all := odci(obs.CbInsert, obs.CbUpdate, obs.CbDelete, obs.CbStart, obs.CbFetch)
	if v := mm.guard(counters{odci: all, walSyncs: 3, bgCheckpoints: 2, admitWaits: 3}); len(v) != 0 {
		t.Errorf("mixed_maintain: healthy counters flagged: %v", v)
	}
	if v := mm.guard(counters{odci: all, walSyncs: 3, bgCheckpoints: 1, admitWaits: 3}); len(v) != 1 {
		t.Errorf("mixed_maintain: one checkpoint should be the one violation, got %v", v)
	}
}

// TestSmokeEveryWorkload runs each workload at a small size through its
// oracle, its reopen check and the traced run (whose report holds every
// metric, end-to-end and per-layer), and checks that the run emits exactly
// the metrics BENCHMARK.json names. The separation guard is about the
// benchmark's real sizes (a table of 3,000 rows fits any pool) and is
// tested on its own above. The text workloads run at half size, not a
// twentieth: on a hundred documents the optimizer rightly prefers the
// full scan, on which Score is undefined.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	named := map[string]bool{}
	for _, m := range spec.metrics() {
		named[m.Name] = true
	}
	scales := map[string]float64{"domain_search": 0.5, "mixed_maintain": 0.5, "oltp_commit": 0.05, "analytic_scan": 0.05}
	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, spec.Workloads[i].Name, name)
		}
		cfg := config{
			workload: name, seed: 3, seconds: 0.9, trace: true, outDir: t.TempDir(),
			scale: scales[name], warmup: 50 * time.Millisecond, setups: 1, writes: 300 * time.Millisecond,
		}
		rep, err := runWorkload(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", name, rep.Attempted, rep.Failed)
		}
		for _, note := range rep.Notes {
			if strings.Contains(note, "oracle") || strings.Contains(note, "failed") {
				t.Errorf("%s: %s", name, note)
			}
		}
		for _, m := range rep.Metrics {
			if !named[m.Name] {
				t.Errorf("%s: metric %s is not in BENCHMARK.json", name, m.Name)
			}
		}
		// A gated metric is compared as a share of its median, so it has
		// to exist on every workload.
		for _, m := range spec.EndToEnd {
			if got, _ := rep.get(m.Name); got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want it positive on every workload", name, m.Name, got.Value)
			}
		}
		for _, traced := range []bool{true, false} {
			rep.Traced = traced // selects which list the contract line carries
			line, err := contractLine(rep, spec)
			if err != nil {
				t.Errorf("%s traced=%t: %v", name, traced, err)
			}
			var parsed struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Errorf("%s traced=%t: contract line is not JSON: %v", name, traced, err)
			}
			for mname, m := range parsed.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s traced=%t: metric %s = %v %q", name, traced, mname, m.Value, m.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed3.trace.json", name))); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
}
