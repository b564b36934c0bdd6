// Command vetx runs the repo's codebase-specific static analyzers (see
// internal/vetx): the per-function pinbalance, erraudit and layering
// checks plus the interprocedural lock-order analysis. Usage:
//
//	go run ./cmd/vetx ./...
//	go run ./cmd/vetx -list
//	go run ./cmd/vetx ./internal/storage ./internal/btree/...
//
// Exit status: 0 = clean, 1 = at least one finding survived
// suppression, 2 = the packages could not be loaded or type-checked.
// The gate is TestRepoClean in internal/vetx, which runs the same suite
// over the module inside `go test ./...`; this command (`make lint`)
// prints the findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/vetx"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := vetx.DefaultAnalyzers()
	if *list {
		for _, an := range analyzers {
			fmt.Printf("%-18s %s\n", an.Name, an.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := vetx.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := vetx.Load(root, patterns)
	if err != nil {
		fatal(err)
	}
	findings := vetx.Run(pkgs, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vetx: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
