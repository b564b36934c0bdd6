// Command benchrunner regenerates every experiment of EXPERIMENTS.md
// (E1–E10 and the A1 ablation, listed in bench.Experiments) at full
// size and prints the result tables, reproducing the evaluation section
// of the paper.
//
// Usage:
//
//	benchrunner [-quick] [-only E2,E4] [-json] [-smoke]
//
// With -json, each experiment is emitted as a JSON object carrying the
// table plus the engine metrics snapshot accumulated while it ran
// (pager hit rate, WAL activity, ODCI callback-time breakdowns). With
// -smoke, the run exits nonzero unless the aggregated metrics show real
// engine activity (pager fetches, ODCIIndexFetch calls, the ODCICallback
// wait class) — CI uses this to catch silently dead instrumentation.
// An -only id that names no experiment exits 2 and prints the valid ids.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
)

// experimentJSON is one experiment's -json output record.
type experimentJSON struct {
	ID           string         `json:"id"`
	Title        string         `json:"title"`
	PaperClaim   string         `json:"paper_claim"`
	Headers      []string       `json:"headers"`
	Rows         [][]string     `json:"rows"`
	WallMS       float64        `json:"wall_ms"`
	PagerHitRate float64        `json:"pager_hit_rate"`
	Metrics      engine.Metrics `json:"metrics"`
}

func main() {
	quick := flag.Bool("quick", false, "run with reduced data sizes")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E2,E4); empty = all")
	jsonOut := flag.Bool("json", false, "emit one JSON object per experiment instead of text tables")
	smoke := flag.Bool("smoke", false, "fail unless required engine counters are nonzero (CI smoke check)")
	flag.Parse()

	experiments, err := bench.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}

	cfg := bench.Config{Quick: *quick}
	enc := json.NewEncoder(os.Stdout)
	var total engine.Metrics
	totalStart := time.Now()
	bench.TakeMetrics() // discard anything accumulated before the sweep
	for _, e := range experiments {
		start := time.Now()
		t := e.Run(cfg)
		wall := time.Since(start)
		m := bench.TakeMetrics()
		total.Merge(m)
		if *jsonOut {
			rec := experimentJSON{
				ID:           t.ID,
				Title:        t.Title,
				PaperClaim:   t.PaperClaim,
				Headers:      t.Headers,
				Rows:         t.Rows,
				WallMS:       float64(wall.Microseconds()) / 1000,
				PagerHitRate: m.Pager.HitRate(),
				Metrics:      m,
			}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: encode:", err)
				os.Exit(1)
			}
			continue
		}
		fmt.Println(t.Format())
		fmt.Printf("(%s completed in %v; pager hit rate %.1f%%, ODCI fetch calls %d)\n\n",
			e.ID, wall.Round(time.Millisecond), m.Pager.HitRate()*100,
			m.ODCI.Callbacks["ODCIIndexFetch"].Calls)
	}
	if !*jsonOut {
		fmt.Printf("all experiments done in %v\n", time.Since(totalStart).Round(time.Millisecond))
	}
	if *smoke {
		if err := smokeCheck(total); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: smoke check FAILED:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchrunner: smoke check ok")
	}
}

// smokeCheck validates that the instrumented engine actually observed
// the activity the experiments must have generated. A zero here means a
// counter was disconnected, not that the workload was idle.
func smokeCheck(m engine.Metrics) error {
	if m.Pager.Fetches == 0 {
		return fmt.Errorf("pager fetches = 0 (buffer-pool counters disconnected)")
	}
	if m.Engine.Selects == 0 {
		return fmt.Errorf("selects = 0 (engine counters disconnected)")
	}
	if m.Txn.Commits == 0 {
		return fmt.Errorf("txn commits = 0 (txn counters disconnected)")
	}
	if m.Planner.Plans == 0 {
		return fmt.Errorf("planner plans = 0 (planner counters disconnected)")
	}
	fetch := m.ODCI.Callbacks["ODCIIndexFetch"]
	if fetch.Calls == 0 {
		return fmt.Errorf("ODCIIndexFetch calls = 0 (ODCI-boundary counters disconnected)")
	}
	if wc := m.Waits.Classes["ODCICallback"]; wc.Count == 0 {
		return fmt.Errorf("wait class ODCICallback never fired (wait-event recording point disconnected)")
	}
	return nil
}
