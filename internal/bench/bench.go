// Package bench is the experiment harness: one function per experiment
// of EXPERIMENTS.md (E1–E10, A1), each building its own database, running
// the paper's comparison, and returning a printable table. Experiments
// lists them; the root bench_test.go wraps it as testing.B benchmarks
// and cmd/benchrunner prints the full sweep.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
)

// Config scales the experiments.
type Config struct {
	// Quick shrinks data sizes so the whole suite runs in seconds
	// (used by `go test -bench`); the full sweep runs via cmd/benchrunner.
	Quick bool
}

func (c Config) pick(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is one experiment's result.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Headers    []string
	Rows       [][]string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := fmt.Sprintf("%s — %s\n", t.ID, t.Title)
	out += fmt.Sprintf("paper: %s\n", t.PaperClaim)
	line := ""
	for i, h := range t.Headers {
		line += fmt.Sprintf("%-*s  ", widths[i], h)
	}
	out += line + "\n"
	for _, r := range t.Rows {
		line = ""
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			line += fmt.Sprintf("%-*s  ", w, c)
		}
		out += line + "\n"
	}
	return out
}

// Experiment is one entry of the experiment table.
type Experiment struct {
	ID  string
	Run func(Config) Table
}

// Experiments is every experiment in order: the paper-reproduction
// tables E1–E10 and the A1 ablation. cmd/benchrunner and the root
// bench_test.go both range over it.
var Experiments = []Experiment{
	{"E1", E1IndexVsFunctional},
	{"E2", E2TextPre8iVs8i},
	{"E3", E3SpatialTileJoinVsOperator},
	{"E4", E4VIRPhases},
	{"E5", E5ChemFileVsLOB},
	{"E6", E6OptimizerChoice},
	{"E7", E7ScanContext},
	{"E8", E8BatchFetch},
	{"E9", E9MaintenanceOverhead},
	{"E10", E10CollectionIndex},
	{"A1", A1CallbacksVsDirect},
}

// Select resolves a comma-separated id list (case-insensitive, blanks
// ignored) to experiments in table order; the empty list selects all.
// An id that names no experiment is an error listing the valid ones,
// so a stale script fails instead of running nothing.
func Select(only string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return Experiments, nil
	}
	var picked []Experiment
	valid := make([]string, len(Experiments))
	for i, e := range Experiments {
		valid[i] = e.ID
		if want[e.ID] {
			picked = append(picked, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment id %s (valid: %s)",
			strings.Join(unknown, ","), strings.Join(valid, ","))
	}
	return picked, nil
}

// ---------------------------------------------------------------------------
// shared helpers

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

func newDB() (*engine.DB, *engine.Session) {
	db := must1(engine.Open(engine.Options{}))
	return db, db.NewSession()
}

// mustClose tears down a per-iteration database; a close failure means
// the experiment corrupted state, so the whole sweep aborts.
func mustClose(db *engine.DB) {
	if err := db.Close(); err != nil {
		panic(fmt.Sprintf("bench: close database: %v", err))
	}
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}
