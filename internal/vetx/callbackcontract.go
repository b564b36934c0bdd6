package vetx

import (
	"fmt"
	"go/ast"
	"strings"
)

// CallbackContract returns the callbackcontract analyzer, which enforces
// the ODCIIndex callback error contract on cartridge packages
// (internal/cartridge/...): indextype routines are invoked implicitly by
// the engine in the middle of DML and scans, so a failure must surface as
// an error return that the engine can convert into statement-level
// rollback — a panic would rip through the executor with locks held and
// transactions half-applied. Concretely:
//
//   - cartridge non-test code must not call panic;
//   - any method whose first parameter is an extidx.Server (i.e. an
//     ODCIIndex-style callback entry point) must declare error as its
//     final result.
//
// Only this analyzer catches a panic on a callback's error path, since
// no test drives those paths. Seeded in real code, each passes go test
// and -race -tags invariants: a panic in place of the chem cartridge's
// duplicate-index error in ODCIIndexCreate, of the text cartridge's
// pure-negation error, and of its Contains(...) = 0 error in
// ODCIIndexStart.
func CallbackContract() *Analyzer {
	return &Analyzer{
		Name: "callbackcontract",
		Doc:  "cartridge callbacks must propagate errors and never panic",
		Run:  runCallbackContract,
	}
}

func runCallbackContract(pkg *Package) []Finding {
	if !strings.Contains(pkg.ImportPath, "/cartridge/") {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isPanicCall(x) {
					out = append(out, Finding{
						Analyzer: "callbackcontract",
						Pos:      pkg.Fset.Position(x.Pos()),
						Message:  "cartridge code must return errors, not panic: the engine converts callback errors into statement rollback",
					})
				}
			case *ast.FuncDecl:
				if f := checkCallbackSignature(pkg, x); f != nil {
					out = append(out, *f)
				}
			}
			return true
		})
	}
	return out
}

// checkCallbackSignature flags callback entry points (first parameter of a
// Server type) that do not return error last.
func checkCallbackSignature(pkg *Package, fd *ast.FuncDecl) *Finding {
	if fd.Recv == nil || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return nil
	}
	if !isServerParam(fd.Type.Params.List[0].Type) {
		return nil
	}
	res := fd.Type.Results
	if res != nil && len(res.List) > 0 {
		last := res.List[len(res.List)-1].Type
		if id, ok := last.(*ast.Ident); ok && id.Name == "error" {
			return nil
		}
	}
	f := Finding{
		Analyzer: "callbackcontract",
		Pos:      pkg.Fset.Position(fd.Pos()),
		Message:  fmt.Sprintf("callback method %s takes a Server but does not return error as its final result", fd.Name.Name),
	}
	return &f
}

// isServerParam matches `extidx.Server` (any package alias) or a bare
// `Server` identifier.
func isServerParam(t ast.Expr) bool {
	switch x := t.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "Server"
	case *ast.Ident:
		return x.Name == "Server"
	}
	return false
}
