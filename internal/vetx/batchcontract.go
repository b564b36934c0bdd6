package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Batchcontract returns the batchcontract analyzer: inside the executor
// package (internal/exec), a batch operator must not call storage.Heap's
// Get inside a per-row loop. That re-serializes a chunk into one pager pin per row,
// which is exactly the cost the page-sorted Heap.GetBatchFunc exists to
// avoid. A single-row lookup may call Get straight-line; loops must go
// through the batched read. (That every operator speaks the chunk
// protocol needs no analyzer: exec.Iterator is NextBatch + Close, so the
// compiler rejects an operator without NextBatch.)
//
// Only this analyzer catches the defect outside RIDFetch's allocation
// test: rows come out right, just with more pins. Seeded in real code,
// each passes go test and -race -tags invariants: DomainScan reading
// each fetched RID with d.Heap.Get, and RIDFetch reading batches of at
// most four RIDs with f.Heap.Get. The receiver is matched by its type,
// whatever the variable holding it is called.
func Batchcontract() *Analyzer {
	return &Analyzer{
		Name:      "batchcontract",
		Doc:       "exec operators must not call Heap.Get in per-row loops",
		NeedTypes: true,
		Run:       runBatchcontract,
	}
}

// batchcontractHeapPkg is the import path of the package defining Heap.
const batchcontractHeapPkg = "repro/internal/storage"

// batchcontractScope reports whether the import path is the executor
// package (or a sub-package of it).
func batchcontractScope(path string) bool {
	return strings.Contains(path+"/", "/internal/exec/")
}

// runBatchcontract flags Heap.Get calls inside for/range loops.
func runBatchcontract(pkg *Package) []Finding {
	if !batchcontractScope(pkg.ImportPath) {
		return nil
	}
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
				if !ok || sel.Sel.Name != "Get" || seen[call.Pos()] {
					return true
				}
				s := pkg.Info.Selections[sel]
				if s == nil || s.Kind() != types.MethodVal {
					return true
				}
				named := namedRecv(s.Recv())
				if named == nil || named.Obj().Name() != "Heap" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != batchcontractHeapPkg {
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
