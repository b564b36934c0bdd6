// Command benchrunner regenerates every experiment of EXPERIMENTS.md
// (E1–E10 and the A1 ablation, listed in bench.Experiments) at full
// size and prints the result tables, reproducing the evaluation section
// of the paper.
//
// Usage:
//
//	benchrunner [-quick] [-only E2,E4]
//
// An -only id that names no experiment exits 2 and prints the valid ids.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run with reduced data sizes")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E2,E4); empty = all")
	flag.Parse()

	experiments, err := bench.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}

	cfg := bench.Config{Quick: *quick}
	totalStart := time.Now()
	for _, e := range experiments {
		start := time.Now()
		t := e.Run(cfg)
		fmt.Println(t.Format())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("all experiments done in %v\n", time.Since(totalStart).Round(time.Millisecond))
}
