package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Batchcontract returns the batchcontract analyzer: inside the executor
// package (internal/exec), operator types must speak the chunk protocol
// and keep heap access batched. Two rules:
//
//  1. A type that looks like a legacy row iterator — it declares
//     Next() (row, error) and Close() but no NextBatch — no longer
//     satisfies exec.Iterator; every operator must implement
//     NextBatch.
//  2. A batch operator must not call Heap.Get inside a per-row loop:
//     that re-serializes a chunk into one pager pin per row, which is
//     exactly the cost the page-sorted Heap.GetBatchFunc exists to
//     avoid. A single-row lookup may call Get straight-line; loops
//     must go through the batched read.
func Batchcontract() *Analyzer {
	return &Analyzer{
		Name: "batchcontract",
		Doc:  "exec operators must implement NextBatch and must not call Heap.Get in per-row loops",
		Run:  runBatchcontract,
	}
}

// batchcontractScope reports whether the import path is the executor
// package (or a sub-package of it).
func batchcontractScope(path string) bool {
	return strings.Contains(path+"/", "/internal/exec/")
}

func runBatchcontract(pkg *Package) []Finding {
	if !batchcontractScope(pkg.ImportPath) {
		return nil
	}
	var out []Finding
	out = append(out, batchcontractIterators(pkg)...)
	out = append(out, batchcontractLoops(pkg)...)
	return out
}

// batchcontractIterators flags legacy row-iterator shapes (rule 1).
func batchcontractIterators(pkg *Package) []Finding {
	// First pass: every method name declared per receiver type.
	methods := map[string]map[string]bool{}
	forEachMethod(pkg, func(recv string, fd *ast.FuncDecl) {
		if methods[recv] == nil {
			methods[recv] = map[string]bool{}
		}
		methods[recv][fd.Name.Name] = true
	})
	// Second pass: flag Next() (T, error)-shaped methods on types that
	// also have Close but never gained NextBatch.
	var out []Finding
	forEachMethod(pkg, func(recv string, fd *ast.FuncDecl) {
		if fd.Name.Name != "Next" || !isRowNextShape(fd.Type) {
			return
		}
		ms := methods[recv]
		if !ms["Close"] || ms["NextBatch"] {
			return
		}
		out = append(out, Finding{
			Analyzer: "batchcontract",
			Pos:      pkg.Fset.Position(fd.Name.Pos()),
			Message: fmt.Sprintf("%s declares row-at-a-time Next/Close but no NextBatch; exec.Iterator is chunk-based — implement NextBatch(*Chunk) error",
				recv),
		})
	})
	return out
}

// forEachMethod calls fn for every method declaration in the package with
// its receiver type name (pointer stripped).
func forEachMethod(pkg *Package, fn func(recv string, fd *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if name := recvTypeName(fd.Recv.List[0].Type); name != "" {
				fn(name, fd)
			}
		}
	}
}

// recvTypeName extracts the named type of a method receiver.
func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(x.X)
	}
	return ""
}

// isRowNextShape matches the legacy iterator signature: no parameters,
// exactly two results with error last.
func isRowNextShape(ft *ast.FuncType) bool {
	if ft.Params != nil && len(ft.Params.List) > 0 {
		return false
	}
	if ft.Results == nil {
		return false
	}
	n := 0
	for _, f := range ft.Results.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	if n != 2 {
		return false
	}
	last := ft.Results.List[len(ft.Results.List)-1]
	id, ok := last.Type.(*ast.Ident)
	return ok && id.Name == "error"
}

// batchcontractLoops flags Heap.Get calls inside for/range loops (rule 2).
func batchcontractLoops(pkg *Package) []Finding {
	var out []Finding
	seen := map[token.Pos]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				body = l.Body
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Get" {
					return true
				}
				recv := strings.ToLower(exprString(sel.X))
				if !strings.Contains(recv, "heap") || seen[call.Pos()] {
					return true
				}
				seen[call.Pos()] = true
				out = append(out, Finding{
					Analyzer: "batchcontract",
					Pos:      pkg.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("%s.Get inside a per-row loop pins one page per row; collect the batch's RIDs and use Heap.GetBatchFunc (page-sorted, one pin per page)",
						exprString(sel.X)),
				})
				return true
			})
			return true
		})
	}
	return out
}
