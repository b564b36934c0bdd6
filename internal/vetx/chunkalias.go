package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
)

// ChunkAlias returns the chunkalias analyzer: it enforces the exec.Chunk
// ownership contract that the parallel executor depends on. A chunk passed
// into a function (the NextBatch(dst *Chunk) pattern) is caller-owned and
// reused: the callee may fill it, but must not retain the *Chunk itself or
// its top-level slices (Rows, RIDs, Anc) past return — Reset truncates
// them in place, so a stored alias silently observes the next batch.
//
// Flagged: storing the chunk pointer or a chunk-derived slice into a
// struct field or package variable, directly or through a local alias, or
// capturing one in a closure that is itself stored, or sending one on a
// channel (the exchange-handoff rule: a chunk crossing a channel must be
// freshly allocated by the sender, never the caller-owned parameter the
// consumer is about to Reset). Element reads and copies such as
// c.Rows[i] and append(dst, c.Rows...) are not findings, and neither are
// writes INTO the chunk (c.Rows = ... is how producers fill it). A row
// itself is valid only until its producer's next NextBatch, because
// producers recycle row storage; this analyzer does not check that
// lifetime. The invariants build does: a producer poisons a recycled
// slab, and exec's TestRowsValidUntilNextBatch runs every producer
// under each consumer that keeps rows.
//
// The check is syntactic and applies to any function with a *Chunk
// parameter, so cartridge packages implementing batch iterators get it
// too. A chunk held in a local, such as the Exchange worker's, is out of
// its reach; the parallel parity tests hold that handoff instead.
//
// Only this analyzer catches a retained chunk that today's plans happen
// not to expose. Seeded in real code: exec.Instrument keeping the
// caller's chunk to count its rows at the next NextBatch or Close passes
// go test and -race -tags invariants; its counts stay right only while
// no consumer resets or truncates the chunk between the calls.
func ChunkAlias() *Analyzer {
	return &Analyzer{
		Name: "chunkalias",
		Doc:  "a *Chunk parameter and its Rows/RIDs/Anc slices must not be retained across return",
		Run:  runChunkAlias,
	}
}

// chunkSliceFields are the Chunk fields whose backing arrays are reused
// across batches.
var chunkSliceFields = map[string]bool{"Rows": true, "RIDs": true, "Anc": true}

func runChunkAlias(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := chunkParams(fd.Type)
			if len(params) == 0 {
				continue
			}
			c := &chunkAliasChecker{pkg: pkg, derived: params}
			ast.Inspect(fd.Body, c.visit)
			out = append(out, c.findings...)
		}
	}
	return out
}

// chunkParams returns the names of parameters with type *Chunk or
// *exec.Chunk.
func chunkParams(ft *ast.FuncType) map[string]bool {
	out := map[string]bool{}
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		var name string
		switch t := star.X.(type) {
		case *ast.Ident:
			name = t.Name
		case *ast.SelectorExpr:
			name = t.Sel.Name
		}
		if name != "Chunk" {
			continue
		}
		for _, id := range field.Names {
			if id.Name != "_" {
				out[id.Name] = true
			}
		}
	}
	return out
}

type chunkAliasChecker struct {
	pkg *Package
	// derived names the local identifiers aliasing the chunk or one of
	// its reused slices (starting with the parameters themselves).
	derived  map[string]bool
	findings []Finding
}

func (c *chunkAliasChecker) visit(n ast.Node) bool {
	switch st := n.(type) {
	case *ast.AssignStmt:
		c.assign(st)
	case *ast.GoStmt:
		// A goroutine outlives the NextBatch call by construction; any
		// chunk-derived capture escapes.
		if c.capturesDerived(st.Call) {
			c.report(st.Pos(), "chunk-derived value captured by goroutine outliving the batch; copy it first")
		}
	case *ast.SendStmt:
		// A channel send hands the value to another goroutine (the
		// Exchange worker/consumer handoff); a caller-owned chunk or
		// slice crossing it outlives the batch on the receiving side.
		if c.isDerived(st.Value) {
			c.report(st.Pos(), fmt.Sprintf("%s sent on a channel publishes caller-owned chunk memory to another goroutine; send a freshly allocated chunk instead",
				exprString(st.Value)))
		}
	}
	return true
}

// assign flags stores of chunk-derived values to non-local destinations
// and tracks new local aliases.
func (c *chunkAliasChecker) assign(st *ast.AssignStmt) {
	// Parallel assignment only pairs up 1:1; the multi-value forms
	// (x, err := f()) have call RHS, never chunk-derived.
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		rhs := st.Rhs[i]
		if !c.isDerived(rhs) {
			continue
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name != "_" {
				c.derived[l.Name] = true
			}
		case *ast.SelectorExpr:
			// Writing INTO the chunk is the producer filling it; writing a
			// chunk-derived value into anything else retains it.
			if !c.isDerived(l.X) {
				c.report(st.Pos(), fmt.Sprintf("%s stored to %s retains caller-owned chunk memory across return; copy it",
					exprString(rhs), exprString(l)))
			}
		case *ast.IndexExpr:
			if !c.isDerived(l.X) {
				c.report(st.Pos(), fmt.Sprintf("%s stored into %s retains caller-owned chunk memory across return; copy it",
					exprString(rhs), exprString(l.X)))
			}
		}
	}
}

// isDerived reports whether e aliases the chunk or one of its reused
// top-level slices.
func (c *chunkAliasChecker) isDerived(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return c.derived[x.Name]
	case *ast.SelectorExpr:
		// c.Rows / c.RIDs / c.Anc share the chunk's backing arrays. Other
		// selectors (c.Label, c.Sink) are values.
		return chunkSliceFields[x.Sel.Name] && c.isDerived(x.X)
	case *ast.SliceExpr:
		// rows[:n] still aliases the backing array.
		return c.isDerived(x.X)
	case *ast.ParenExpr:
		return c.isDerived(x.X)
	case *ast.UnaryExpr:
		return x.Op.String() == "&" && c.isDerived(x.X)
	case *ast.FuncLit:
		// A closure holding a chunk-derived variable is itself derived:
		// storing it to a field stores the alias.
		found := false
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && c.derived[id.Name] {
				found = true
			}
			return !found
		})
		return found
	}
	// IndexExpr (c.Rows[i]: a single Row, safe to retain), CallExpr
	// (append copies into a new or operator-owned array), and literals
	// are not derived.
	return false
}

// capturesDerived reports whether the go-statement call references a
// chunk-derived identifier (callee closure or arguments).
func (c *chunkAliasChecker) capturesDerived(call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.derived[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

func (c *chunkAliasChecker) report(pos token.Pos, msg string) {
	c.findings = append(c.findings, Finding{
		Analyzer: "chunkalias",
		Pos:      c.pkg.Fset.Position(pos),
		Message:  msg,
	})
}
