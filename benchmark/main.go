// Command benchmark is the repository's performance benchmark: four
// named workloads driven against a file-backed extdb database the way an
// embedding application drives it (default options, real fsync, one
// session per client, two closed-loop clients), reporting the end-to-end
// and per-layer metrics BENCHMARK.json names. See README.md.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-seconds <s>] [-trace]
//	go run ./benchmark compare <a.json> <b.json>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

func main() {
	if os.Getenv(referenceEnv) != "" {
		os.Exit(referenceMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and a span file instead of the gated end-to-end metrics")
	outDir := fs.String("out", "benchmark/out", "directory for reports, span files and the scratch databases")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	code := 0
	for _, n := range names {
		cfg := config{
			workload: n, seed: *seed, seconds: *seconds, trace: *trace, outDir: *outDir,
			scale: 1, warmup: 1500 * time.Millisecond, setups: 3, writes: 5 * time.Second,
		}
		rep, err := runWorkload(cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", n, err)
			return 1
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		contract, err := contractLine(rep, spec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n%s\n", line, contract)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// normalizeTrace lets the traced run be asked for both ways: the bare
// `-trace` of a person at a shell, and the `--trace 0|1` of the
// acceptance driver, which the flag package would otherwise read as a
// boolean followed by a stray argument.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// formatFloat prints a measured value with all its digits.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
