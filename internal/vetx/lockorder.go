package vetx

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder returns the lockorder analyzer: it builds the global lock-order
// graph from the interprocedural call graph — an edge A → B whenever lock B
// is acquired (anywhere in the program, through any call chain) while A is
// held — and reports:
//
//   - any cycle in the observed graph as a deadlock candidate, printing
//     the conflicting acquisition paths;
//   - any observed edge that contradicts a declared order directive
//     `//vetx:lockorder A < B` (A must be acquired before B);
//   - contradictory or malformed lockorder directives themselves.
//
// Lock identity is the package-qualified struct field or package variable
// ("storage.Pager.mu", "engine.gateMu"); locks on locals are out of scope
// (the LockManager's table locks are deadlock-free by sorted acquisition).
// Same-identity re-acquisition is also out of scope: two *instances* of a
// type may legitimately nest, and instance aliasing is beyond a static
// field-level identity.
//
// Only this analyzer catches an inversion on a rarely taken path every
// time. Seeded in real code: engine's logCommit entering the mutation
// window under walMu when a shared fsync fails (walMu before mutMu)
// passes plain go test, and under -race -tags invariants it deadlocks
// TestCrashConcurrentMatrixEveryPoint in only 4 of 5 runs.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name:       "lockorder",
		Doc:        "the global mutex acquisition graph must be acyclic and match //vetx:lockorder declarations",
		NeedTypes:  true,
		RunProgram: runLockOrder,
	}
}

// lockEdge is one observed A-held-while-acquiring-B event with its witness.
type lockEdge struct {
	from, to string
	// node/acquire locate the B acquisition that created the edge.
	node    *FuncNode
	acquire LockAcquire
}

// runLockOrder computes observed edges, checks directives, and reports
// cycles.
func runLockOrder(prog *Program) []Finding {
	var out []Finding
	edges := observedLockEdges(prog)

	decl, declFindings := collectLockOrderDirectives(prog)
	out = append(out, declFindings...)

	// Observed edge contradicting a declared order.
	for _, e := range edges {
		if decl[e.to][e.from] {
			out = append(out, Finding{
				Analyzer: "lockorder",
				Pos:      e.node.Pkg.Fset.Position(e.acquire.Pos),
				Message: fmt.Sprintf("%s acquired while %s is held (%s), but //vetx:lockorder declares %s < %s",
					e.to, e.from, prog.HoldChain(e.node, e.from, e.acquire.HeldBefore), e.to, e.from),
			})
		}
	}

	out = append(out, lockOrderCycles(prog, edges)...)
	return out
}

// observedLockEdges walks every acquire site and emits one edge per
// (held, acquired) pair, first witness kept.
func observedLockEdges(prog *Program) []lockEdge {
	seen := map[string]bool{}
	var edges []lockEdge
	keys := make([]string, 0, len(prog.Funcs))
	for k := range prog.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := prog.Funcs[k]
		for _, acq := range f.Acquires {
			held := map[string]bool{}
			for l := range acq.HeldBefore {
				held[l] = true
			}
			for l := range f.EntryHeld {
				held[l] = true
			}
			for from := range held {
				if from == acq.Lock {
					continue // instance aliasing: out of scope
				}
				ek := from + "\x00" + acq.Lock
				if seen[ek] {
					continue
				}
				seen[ek] = true
				edges = append(edges, lockEdge{from: from, to: acq.Lock, node: f, acquire: acq})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	return edges
}

// lockOrderCycles finds cycles in the observed edge graph and reports each
// once, with the acquisition path behind every edge of the cycle.
func lockOrderCycles(prog *Program, edges []lockEdge) []Finding {
	adj := map[string]map[string]*lockEdge{}
	for i := range edges {
		e := &edges[i]
		if adj[e.from] == nil {
			adj[e.from] = map[string]*lockEdge{}
		}
		adj[e.from][e.to] = e
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var out []Finding
	reported := map[string]bool{}
	// DFS from each node; a back edge to a node on the current stack is a
	// cycle. Small graphs (a handful of long-lived locks) keep this cheap.
	for _, start := range nodes {
		var stack []string
		onStack := map[string]int{}
		var dfs func(n string)
		dfs = func(n string) {
			onStack[n] = len(stack)
			stack = append(stack, n)
			next := make([]string, 0, len(adj[n]))
			for m := range adj[n] {
				next = append(next, m)
			}
			sort.Strings(next)
			for _, m := range next {
				if at, ok := onStack[m]; ok {
					cycle := append([]string(nil), stack[at:]...)
					if f := reportCycle(prog, adj, cycle, reported); f != nil {
						out = append(out, *f)
					}
					continue
				}
				dfs(m)
			}
			stack = stack[:len(stack)-1]
			delete(onStack, n)
		}
		dfs(start)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Message < out[j].Message })
	return out
}

// reportCycle renders one cycle (deduplicated by its sorted lock set) with
// every edge's acquisition witness.
func reportCycle(prog *Program, adj map[string]map[string]*lockEdge, cycle []string, reported map[string]bool) *Finding {
	canon := append([]string(nil), cycle...)
	sort.Strings(canon)
	key := strings.Join(canon, ",")
	if reported[key] {
		return nil
	}
	reported[key] = true

	var paths []string
	var pos token.Position
	for i, from := range cycle {
		to := cycle[(i+1)%len(cycle)]
		e := adj[from][to]
		if e == nil {
			continue
		}
		p := e.node.Pkg.Fset.Position(e.acquire.Pos)
		if i == 0 {
			pos = p
		}
		paths = append(paths, fmt.Sprintf("%s acquired at %s in %s with %s held (%s)",
			to, trimPos(p), e.node.Name, from, prog.HoldChain(e.node, from, e.acquire.HeldBefore)))
	}
	f := Finding{
		Analyzer: "lockorder",
		Pos:      pos,
		Message: fmt.Sprintf("deadlock candidate: lock-order cycle %s; %s",
			strings.Join(append(cycle, cycle[0]), " -> "), strings.Join(paths, "; ")),
	}
	return &f
}

// ---------------------------------------------------------------------------
// //vetx:lockorder directives

const lockOrderDirective = "//vetx:lockorder"

// collectLockOrderDirectives parses `//vetx:lockorder A < B` comments from
// every file and checks the declared set itself for contradictions
// (including declaration cycles).
func collectLockOrderDirectives(prog *Program) (map[string]map[string]bool, []Finding) {
	decl := map[string]map[string]bool{} // decl[A][B]: A declared before B
	declPos := map[string]token.Position{}
	var out []Finding
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, lockOrderDirective) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, lockOrderDirective)
					a, b, ok := strings.Cut(rest, "<")
					a, b = strings.TrimSpace(a), strings.TrimSpace(b)
					if !ok || a == "" || b == "" || strings.ContainsAny(b, "<") {
						out = append(out, Finding{
							Analyzer: "lockorder",
							Pos:      pos,
							Message:  "malformed lockorder directive (use //vetx:lockorder pkg.Type.field < pkg.Type.field)",
						})
						continue
					}
					if a == b {
						out = append(out, Finding{
							Analyzer: "lockorder",
							Pos:      pos,
							Message:  fmt.Sprintf("lockorder directive orders %s against itself", a),
						})
						continue
					}
					if decl[b][a] {
						out = append(out, Finding{
							Analyzer: "lockorder",
							Pos:      pos,
							Message: fmt.Sprintf("lockorder directive %s < %s contradicts an earlier %s < %s declaration",
								a, b, b, a),
						})
						continue
					}
					if decl[a] == nil {
						decl[a] = map[string]bool{}
					}
					decl[a][b] = true
					declPos[a+"<"+b] = pos
				}
			}
		}
	}
	// Declaration cycles beyond direct contradictions (A<B, B<C, C<A).
	out = append(out, declaredOrderCycles(decl, declPos)...)
	return decl, out
}

// declaredOrderCycles detects cycles in the declared order relation.
func declaredOrderCycles(decl map[string]map[string]bool, declPos map[string]token.Position) []Finding {
	var out []Finding
	nodes := make([]string, 0, len(decl))
	for n := range decl {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	reported := map[string]bool{}
	for _, start := range nodes {
		var stack []string
		onStack := map[string]int{}
		var dfs func(n string)
		dfs = func(n string) {
			onStack[n] = len(stack)
			stack = append(stack, n)
			next := make([]string, 0, len(decl[n]))
			for m := range decl[n] {
				next = append(next, m)
			}
			sort.Strings(next)
			for _, m := range next {
				if at, ok := onStack[m]; ok {
					cycle := append([]string(nil), stack[at:]...)
					canon := append([]string(nil), cycle...)
					sort.Strings(canon)
					key := strings.Join(canon, ",")
					if !reported[key] && len(cycle) > 2 { // 2-cycles already reported at parse
						reported[key] = true
						pos := declPos[cycle[0]+"<"+cycle[1]]
						out = append(out, Finding{
							Analyzer: "lockorder",
							Pos:      pos,
							Message: fmt.Sprintf("lockorder directives form a cycle: %s",
								strings.Join(append(cycle, cycle[0]), " < ")),
						})
					}
					continue
				}
				dfs(m)
			}
			stack = stack[:len(stack)-1]
			delete(onStack, n)
		}
		dfs(start)
	}
	return out
}
