package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Obscounter returns the obscounter analyzer: inside the observability
// package (internal/obs), live aggregate types — structs whose name ends
// in "Stats" — must keep their numbers in Counter/Histogram fields so
// every update goes through the atomic helpers and stays race-free. An
// unexported bare numeric field in such a struct, or a direct
// assignment/increment of one, bypasses that discipline and silently
// reintroduces data races under concurrent sessions.
//
// Exported plain numeric fields are exempt: by the obs package's own
// convention they only appear in inert per-item slices of snapshots
// (e.g. CallbackStats inside ODCISnapshot), which are single-goroutine
// copies, not live aggregates.
//
// Outside internal/obs the analyzer enforces the wait-event discipline
// instead: a site that measures blocked time with a raw time.Since and
// feeds it into a wait-named obs.Counter bypasses the wait-event table
// — the interval never reaches the per-class {count,total,max} rows or
// the duration histogram, so `\waits` and the smoke check go blind to
// it. Such sites must time the interval through
// obs.WaitStats.StartWait/Done (whose Done returns the nanos for any
// legacy gauge that still wants them).
//
// Only this analyzer catches either defect where the suite does not
// look. Seeded in real code: ConflictStats.aborts as a bare int64 with
// c.aborts++ passes go test and -race -tags invariants (the race
// detector never sees two unsynchronized aborts), and the pager's
// contended shared-latch
// path timing its wait by hand into lockWaitNanos, skipping
// WaitPagerLatch, passes both as well. A bare counter that every
// exchange worker bumps (ExecStats.morselsDispatched) is caught by
// -race.
func Obscounter() *Analyzer {
	return &Analyzer{
		Name:      "obscounter",
		Doc:       "obs live aggregates (*Stats) must count through Counter/Histogram, not bare numeric fields; wait gauges must record through WaitStats.StartWait",
		NeedTypes: true,
		Run:       runObscounter,
	}
}

// obscounterScope reports whether the import path is the obs package (or
// a sub-package of it).
func obscounterScope(path string) bool {
	return strings.Contains(path+"/", "/internal/obs/")
}

func runObscounter(pkg *Package) []Finding {
	if !obscounterScope(pkg.ImportPath) {
		return obscounterWaitBypass(pkg)
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.TypeSpec:
				out = append(out, obscounterFields(pkg, s)...)
			case *ast.AssignStmt:
				if s.Tok == token.DEFINE {
					return true
				}
				for _, lh := range s.Lhs {
					out = append(out, obscounterWrite(pkg, lh)...)
				}
			case *ast.IncDecStmt:
				out = append(out, obscounterWrite(pkg, s.X)...)
			}
			return true
		})
	}
	return out
}

// obscounterWaitBypass flags calls of the shape
//
//	<x>.<somethingWait*>.Add( … time.Since(…) … )
//
// outside internal/obs, where the field is an obs.Counter whose name
// contains "wait": the blocked interval is being measured by hand and
// poured into a gauge, bypassing the wait-event table. The fix is to
// time the interval with obs.WaitStats.StartWait/Done and feed the
// returned nanos to any legacy gauge.
func obscounterWaitBypass(pkg *Package) []Finding {
	if pkg.Info == nil {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || method.Sel.Name != "Add" || len(call.Args) != 1 {
				return true
			}
			fieldSel, ok := method.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selInfo, found := pkg.Info.Selections[fieldSel]
			if !found || selInfo.Kind() != types.FieldVal {
				return true
			}
			fld := selInfo.Obj()
			if !strings.Contains(strings.ToLower(fld.Name()), "wait") ||
				!isObsCounter(fld.Type()) || !containsTimeSince(pkg, call.Args[0]) {
				return true
			}
			out = append(out, Finding{
				Analyzer: "obscounter",
				Pos:      pkg.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("wait gauge %s fed a raw time.Since interval, bypassing the wait-event table; time the wait with obs.WaitStats.StartWait/Done and feed Done's result to the gauge",
					fld.Name()),
			})
			return true
		})
	}
	return out
}

// isObsCounter reports whether t is the Counter type of internal/obs.
func isObsCounter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Counter" && obj.Pkg() != nil && obscounterScope(obj.Pkg().Path())
}

// containsTimeSince reports whether the expression's subtree calls
// time.Since.
func containsTimeSince(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Since" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "time" {
			found = true
			return false
		}
		return true
	})
	return found
}

// obscounterFields flags unexported bare numeric fields declared in a
// live aggregate struct.
func obscounterFields(pkg *Package, spec *ast.TypeSpec) []Finding {
	if !strings.HasSuffix(spec.Name.Name, "Stats") {
		return nil
	}
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	var out []Finding
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.IsExported() {
				continue
			}
			obj, found := pkg.Info.Defs[name]
			if !found || !isBareNumeric(obj.Type()) {
				continue
			}
			out = append(out, Finding{
				Analyzer: "obscounter",
				Pos:      pkg.Fset.Position(name.Pos()),
				Message: fmt.Sprintf("live aggregate %s holds bare numeric field %s (%s); use obs.Counter or obs.Histogram so updates stay atomic",
					spec.Name.Name, name.Name, obj.Type()),
			})
		}
	}
	return out
}

// obscounterWrite flags an assignment or ++/-- target that is an
// unexported bare numeric field of a live aggregate struct.
func obscounterWrite(pkg *Package, target ast.Expr) []Finding {
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selInfo, found := pkg.Info.Selections[sel]
	if !found || selInfo.Kind() != types.FieldVal {
		return nil
	}
	fld, ok := selInfo.Obj().(*types.Var)
	if !ok || fld.Exported() || !isBareNumeric(fld.Type()) {
		return nil
	}
	named := namedRecv(selInfo.Recv())
	if named == nil || !strings.HasSuffix(named.Obj().Name(), "Stats") {
		return nil
	}
	if p := named.Obj().Pkg(); p == nil || !obscounterScope(p.Path()) {
		return nil
	}
	return []Finding{{
		Analyzer: "obscounter",
		Pos:      pkg.Fset.Position(target.Pos()),
		Message: fmt.Sprintf("direct write to %s.%s bypasses the atomic helpers; make the field an obs.Counter/Histogram and use Inc/Add/Observe",
			named.Obj().Name(), fld.Name()),
	}}
}

// isBareNumeric reports whether the type's underlying representation is a
// plain machine number (integer or float) — the shapes obs.Counter and
// obs.Histogram exist to replace.
func isBareNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat) != 0
}
