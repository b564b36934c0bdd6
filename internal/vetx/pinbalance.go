package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
)

// PinBalance returns the pinbalance analyzer: every buffer-pool page
// acquisition — `pg, err := p.Fetch(id)` or `pg, err := p.NewPage()` —
// pins a frame that the same function must release with `Unpin(pg, ...)`
// on every path, transfer to its caller by returning the page, or
// discharge with a deferred unpin. A leaked pin permanently wires a frame
// into the buffer pool; under pin pressure the pool then grows without
// bound (see Pager.evictIfFullLocked), which is why the `invariants`
// build tag also checks for leaked pins at Pager.Close.
//
// The one flow fact the checker understands beyond branch merging: a return inside `if err != nil { ... }` guarding the
// most recent acquisition with that error variable is the acquisition's
// own failure path, where no pin exists.
func PinBalance() *Analyzer {
	return &Analyzer{
		Name: "pinbalance",
		Doc:  "pages pinned via Fetch/NewPage must be Unpinned on every path",
		Run:  runPinBalance,
	}
}

type pinInfo struct {
	pos     token.Pos
	errName string // the error variable assigned alongside the page
}

type pinChecker struct {
	pkg      *Package
	findings []Finding
	deferred map[string]bool
}

func runPinBalance(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			c := &pinChecker{pkg: pkg, deferred: map[string]bool{}}
			exit, terminated := c.block(body.List, map[string]pinInfo{}, nil)
			if !terminated {
				c.reportHeld(exit, body.Rbrace, nil, "function falls through")
			}
			out = append(out, c.findings...)
		})
	}
	return out
}

// pinAcquisition recognizes `pg, err := X.Fetch(id)` / `pg, err :=
// X.NewPage()` and returns the page and error variable names.
func pinAcquisition(s *ast.AssignStmt) (pageVar, errVar string, pos token.Pos, ok bool) {
	if len(s.Lhs) != 2 || len(s.Rhs) != 1 {
		return "", "", 0, false
	}
	call, isCall := s.Rhs[0].(*ast.CallExpr)
	if !isCall {
		return "", "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", 0, false
	}
	switch {
	case sel.Sel.Name == "Fetch" && len(call.Args) == 1:
	case sel.Sel.Name == "NewPage" && len(call.Args) == 0:
	default:
		return "", "", 0, false
	}
	pv, okP := s.Lhs[0].(*ast.Ident)
	ev, okE := s.Lhs[1].(*ast.Ident)
	if !okP || !okE {
		return "", "", 0, false
	}
	return pv.Name, ev.Name, call.Pos(), true
}

// pinRelease recognizes `X.Unpin(pg, ...)` and returns the page variable.
func pinRelease(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Unpin" || len(call.Args) == 0 {
		return "", false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

func (c *pinChecker) reportHeld(held map[string]pinInfo, at token.Pos, exempt map[string]bool, what string) {
	for name, info := range held {
		if c.deferred[name] || (exempt != nil && exempt[name]) {
			continue
		}
		acq := c.pkg.Fset.Position(info.pos)
		c.findings = append(c.findings, Finding{
			Analyzer: "pinbalance",
			Pos:      c.pkg.Fset.Position(at),
			Message: fmt.Sprintf("%s with page %q pinned at line %d still pinned (Unpin it, defer the unpin, or return the page to transfer ownership)",
				what, name, acq.Line),
		})
	}
}

// block interprets a statement list. exempt carries the page variables
// whose acquisition is known to have failed on this path (err != nil
// guard), so the pin does not exist.
func (c *pinChecker) block(stmts []ast.Stmt, held map[string]pinInfo, exempt map[string]bool) (map[string]pinInfo, bool) {
	for _, st := range stmts {
		var term bool
		held, term = c.stmt(st, held, exempt)
		if term {
			return held, true
		}
	}
	return held, false
}

func (c *pinChecker) stmt(st ast.Stmt, held map[string]pinInfo, exempt map[string]bool) (map[string]pinInfo, bool) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		// Any write to a variable dissolves its association with earlier
		// acquisitions' error results: after `n, err := parse(...)`, a
		// following `if err != nil` no longer guards the Fetch above it,
		// so a return in that branch must still unpin.
		assigned := map[string]bool{}
		for _, lh := range s.Lhs {
			if id, ok := lh.(*ast.Ident); ok {
				assigned[id.Name] = true
			}
		}
		for name, info := range held {
			if info.errName != "" && assigned[info.errName] {
				info.errName = ""
				held[name] = info
			}
		}
		if pageVar, errVar, pos, ok := pinAcquisition(s); ok {
			if pageVar == "_" {
				c.findings = append(c.findings, Finding{
					Analyzer: "pinbalance",
					Pos:      c.pkg.Fset.Position(pos),
					Message:  "pinned page assigned to _ can never be unpinned",
				})
				return held, false
			}
			held[pageVar] = pinInfo{pos: pos, errName: errVar}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if name, ok := pinRelease(call); ok {
				delete(held, name)
			}
			if isPanicCall(call) {
				return held, true
			}
		}
	case *ast.DeferStmt:
		for _, name := range deferredPinReleases(s.Call) {
			c.deferred[name] = true
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if name, ok := bareIdent(res); ok {
				// Ownership transfers to the caller (the Pager.Fetch
				// pattern itself: the pinned page is the return value).
				delete(held, name)
			}
		}
		c.reportHeld(held, s.Pos(), exempt, "return")
		return held, true
	case *ast.BlockStmt:
		return c.block(s.List, held, exempt)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, held, exempt)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held, exempt)
		}
		thenExempt := exempt
		if errName, ok := errNotNilCond(s.Cond); ok {
			if page, ok := latestAcquisitionFor(held, errName); ok {
				thenExempt = copyExempt(exempt)
				thenExempt[page] = true
			}
		}
		thenExit, thenTerm := c.block(s.Body.List, copyPins(held), thenExempt)
		elseExit, elseTerm := held, false
		if s.Else != nil {
			elseExit, elseTerm = c.stmt(s.Else, copyPins(held), exempt)
		}
		return mergePinExits(thenExit, thenTerm, elseExit, elseTerm)
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held, exempt)
		}
		bodyExit, _ := c.block(s.Body.List, copyPins(held), exempt)
		return unionPins(held, bodyExit), false
	case *ast.RangeStmt:
		bodyExit, _ := c.block(s.Body.List, copyPins(held), exempt)
		return unionPins(held, bodyExit), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held, exempt)
		}
		return c.clauses(s.Body.List, held, exempt)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held, exempt)
		}
		return c.clauses(s.Body.List, held, exempt)
	case *ast.SelectStmt:
		return c.clauses(s.Body.List, held, exempt)
	case *ast.BranchStmt:
		return held, true
	}
	return held, false
}

func (c *pinChecker) clauses(list []ast.Stmt, held map[string]pinInfo, exempt map[string]bool) (map[string]pinInfo, bool) {
	hasDefault := false
	allTerm := true
	merged := map[string]pinInfo{}
	for _, cl := range list {
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			body = cc.Body
		default:
			continue
		}
		exit, term := c.block(body, copyPins(held), exempt)
		if !term {
			allTerm = false
			merged = unionPins(merged, exit)
		}
	}
	if !hasDefault {
		merged = unionPins(merged, held)
		allTerm = false
	}
	return merged, allTerm
}

// deferredPinReleases extracts page variables unpinned by a deferred call:
// `defer p.Unpin(pg, d)` or unpin calls inside a deferred closure.
func deferredPinReleases(call *ast.CallExpr) []string {
	if name, ok := pinRelease(call); ok {
		return []string{name}
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if inner, ok := n.(*ast.CallExpr); ok {
			if name, ok := pinRelease(inner); ok {
				names = append(names, name)
			}
		}
		return true
	})
	return names
}

// bareIdent unwraps parens/& and reports whether the expression is a plain
// identifier.
func bareIdent(e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// errNotNilCond matches the `err != nil` guard.
func errNotNilCond(cond ast.Expr) (string, bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return "", false
	}
	id, ok := bin.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if nilIdent, ok := bin.Y.(*ast.Ident); !ok || nilIdent.Name != "nil" {
		return "", false
	}
	return id.Name, true
}

// latestAcquisitionFor finds the most recently acquired held page whose
// acquisition assigned the given error variable.
func latestAcquisitionFor(held map[string]pinInfo, errName string) (string, bool) {
	var best string
	var bestPos token.Pos = -1
	for name, info := range held {
		if info.errName == errName && info.pos > bestPos {
			best, bestPos = name, info.pos
		}
	}
	return best, bestPos >= 0
}

func copyPins(m map[string]pinInfo) map[string]pinInfo {
	out := make(map[string]pinInfo, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyExempt(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func unionPins(a, b map[string]pinInfo) map[string]pinInfo {
	out := copyPins(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func mergePinExits(a map[string]pinInfo, aTerm bool, b map[string]pinInfo, bTerm bool) (map[string]pinInfo, bool) {
	switch {
	case aTerm && bTerm:
		return map[string]pinInfo{}, true
	case aTerm:
		return b, false
	case bTerm:
		return a, false
	default:
		return unionPins(a, b), false
	}
}
