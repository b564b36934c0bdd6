package vetx

import (
	"fmt"
	"sort"
	"strings"
)

// CallbackUnderLock returns the callbackunderlock analyzer: no ODCI
// cartridge callback (a method call through the extidx boundary interfaces
// IndexMethods / StatsMethods / StatsCollector) may execute while an
// engine or storage mutex is held. Cartridge code is user code — it can
// block, call back into the engine, or take arbitrarily long, and holding
// an internal lock across it is the classic extensible-indexing deadlock.
//
// The check is interprocedural: a callback three frames below the function
// that took the lock is still flagged, with the full hold chain printed.
// `go` statements break propagation (the goroutine does not inherit the
// caller's locks).
//
// Only this analyzer catches a callback run under walMu: no current
// cartridge callback commits, so nothing deadlocks and commits merely
// queue behind user code. Seeded in real code, each passes go test and
// -race -tags invariants: ODCIIndexInsert called under walMu in
// engine's insert path, and ODCIIndexTruncate under walMu in TRUNCATE.
func CallbackUnderLock() *Analyzer {
	return &Analyzer{
		Name:       "callbackunderlock",
		Doc:        "ODCI cartridge callbacks must not be invoked while an engine/storage mutex is held",
		NeedTypes:  true,
		RunProgram: runCallbackUnderLock,
	}
}

func runCallbackUnderLock(prog *Program) []Finding {
	var out []Finding
	keys := make([]string, 0, len(prog.Funcs))
	for k := range prog.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := prog.Funcs[k]
		for i := range f.Calls {
			site := &f.Calls[i]
			if !site.Boundary || site.Go {
				continue
			}
			held := prog.HeldAt(f, site)
			if len(held) == 0 {
				continue
			}
			chains := make([]string, 0, len(held))
			for _, lock := range held {
				chains = append(chains, fmt.Sprintf("%s %s", lock, prog.HoldChain(f, lock, site.Held)))
			}
			out = append(out, Finding{
				Analyzer: "callbackunderlock",
				Pos:      f.Pkg.Fset.Position(site.Pos),
				Message: fmt.Sprintf("cartridge callback %s invoked with %s held in %s",
					site.BoundaryName, strings.Join(chains, "; "), f.Name),
			})
		}
	}
	return out
}
