package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metrics returns every metric the spec names, gated ones first.
func (s *benchSpec) metrics() []specMetric {
	return append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...)
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// failedOpsAbsBound bounds failed_ops_ratio absolutely: it is zero on
// healthy code, and BENCHMARK.json can only state a bound as a share of
// the parent's median. Every other bound comes from BENCHMARK.json.
const failedOpsAbsBound = 0.001

// readReports reads every report object (a JSON line with a "workload"
// key) from a file of program output; other lines are skipped.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"workload"`) {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict classifies b against a for one metric. worse is the relative
// change of the median in the metric's bad direction, spread the wider
// of the two sides' interquartile ranges over the baseline median. A
// change counts, in either direction, when it exceeds both the bound and
// the spread. Short of that, a spread wider than the bound can hide a
// regression of that size, so the pairing is unresolved — never
// unchanged.
func verdict(a, b []float64, higherIsBetter bool, bound float64, absolute bool) (string, float64) {
	ma, mb := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spread := q3a - q1a
	if s := q3b - q1b; s > spread {
		spread = s
	}
	worse := mb - ma
	if higherIsBetter {
		worse = -worse
	}
	if !absolute {
		if ma == 0 {
			if mb == 0 {
				return "unchanged", 0
			}
			return "unresolved", 0
		}
		worse /= ma
		spread /= ma
	}
	switch {
	case worse > bound && worse > spread:
		return "regressed", worse
	case -worse > bound && -worse > spread:
		return "improved", worse
	case spread > bound:
		return "unresolved", worse
	}
	return "unchanged", worse
}

// compareMain implements `benchmark compare <a.json> <b.json>`: one row
// per (workload, metric) with both medians, the quartiles and a verdict.
// It exits 1 when any row regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition, for the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if args = fs.Args(); len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] <a.json> <b.json>")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var sides [2]map[string]map[string][]float64 // workload -> metric -> values
	for i, path := range args {
		reps, err := readReports(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sides[i] = map[string]map[string][]float64{}
		for _, r := range reps {
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string][]float64{}
			}
			for _, m := range r.Metrics {
				sides[i][r.Workload][m.Name] = append(sides[i][r.Workload][m.Name], m.Value)
			}
		}
	}
	higher := map[string]bool{}
	bounds := map[string]float64{}
	for _, m := range spec.metrics() {
		higher[m.Name] = m.Better == "higher"
		if m.Bound > 0 {
			bounds[m.Name] = m.Bound
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\ta median [q1, q3] n\tb median [q1, q3] n\tworse by\tverdict")
	regressed := false
	workloads := make([]string, 0, len(sides[0]))
	for wl := range sides[0] {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		names := make([]string, 0, len(sides[0][wl]))
		for name := range sides[0][wl] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := sides[0][wl][name], sides[1][wl][name]
			if len(b) == 0 {
				continue
			}
			bound, gated := bounds[name]
			absolute := name == "failed_ops_ratio"
			if absolute {
				bound, gated = failedOpsAbsBound, true
			}
			v, worse := "", 0.0
			if gated {
				v, worse = verdict(a, b, higher[name], bound, absolute)
				regressed = regressed || v == "regressed"
			}
			q1a, q3a := quartiles(a)
			q1b, q3b := quartiles(b)
			boundCol, worseCol := "-", "-"
			if gated {
				boundCol, worseCol = fmt.Sprintf("%.3g", bound), fmt.Sprintf("%+.3g", worse)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%s\t%s\n",
				wl, name, boundCol, median(a), q1a, q3a, len(a), median(b), q1b, q3b, len(b), worseCol, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}
