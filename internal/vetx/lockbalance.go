package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
)

// LockBalance returns the lockbalance analyzer: every mutex acquisition
// (`x.Lock()` / `x.RLock()`) must be released on every path out of the
// function — either by a matching `defer x.Unlock()` / `defer
// x.RUnlock()`, or by an explicit unlock before each return. The engine's
// lock discipline (DESIGN.md "Static analysis & invariants") forbids
// holding a table or structure lock across a return unless ownership is
// explicitly transferred, in which case the site carries a vetx:ignore
// justification.
//
// The analysis is a per-function abstract interpretation over the
// statement tree: branches fork the held-lock set and merge with union,
// loops widen once, and a return (or function-end fall-through) with a
// non-empty, non-deferred held set is reported. Locks released inside a
// non-deferred closure are not credited to the enclosing function.
//
// Only this analyzer catches an unlock dropped on a branch no test
// takes. Seeded in real code: removing the m.mu.Unlock() before
// ODCIIndexCreate's duplicate-index return in internal/cartridge/chem
// passes go test, -race and -tags invariants, because no test creates
// a chem index twice. (An unlock dropped on the failed-fsync path of
// engine's logCommit, by contrast, hangs the crash matrix.)
func LockBalance() *Analyzer {
	return &Analyzer{
		Name: "lockbalance",
		Doc:  "mutex Lock/RLock must be deferred-unlocked or unlocked on every return path",
		Run:  runLockBalance,
	}
}

// lock keys are "W:<recv>" or "R:<recv>" so Lock pairs with Unlock and
// RLock with RUnlock.
func lockKey(kind byte, recv ast.Expr) string {
	return string(kind) + ":" + exprString(recv)
}

type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
)

// classifyLockCall recognizes zero-argument Lock/RLock/Unlock/RUnlock
// method calls.
func classifyLockCall(call *ast.CallExpr) (key string, op lockOp) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", opNone
	}
	switch sel.Sel.Name {
	case "Lock":
		return lockKey('W', sel.X), opAcquire
	case "RLock":
		return lockKey('R', sel.X), opAcquire
	case "Unlock":
		return lockKey('W', sel.X), opRelease
	case "RUnlock":
		return lockKey('R', sel.X), opRelease
	}
	return "", opNone
}

type lockChecker struct {
	pkg      *Package
	findings []Finding
	// deferred accumulates keys discharged by defer statements; a defer
	// seen anywhere in the function discharges its key (slightly
	// conservative for defers inside branches, which is the safe
	// direction for false positives).
	deferred map[string]bool
}

func runLockBalance(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			c := &lockChecker{pkg: pkg, deferred: map[string]bool{}}
			exit, terminated := c.block(body.List, map[string]token.Pos{})
			if !terminated {
				c.reportHeld(exit, body.Rbrace, "function falls through")
			}
			out = append(out, c.findings...)
		})
	}
	return out
}

func (c *lockChecker) reportHeld(held map[string]token.Pos, at token.Pos, what string) {
	for key, acq := range held {
		if c.deferred[key] {
			continue
		}
		acqPos := c.pkg.Fset.Position(acq)
		c.findings = append(c.findings, Finding{
			Analyzer: "lockbalance",
			Pos:      c.pkg.Fset.Position(at),
			Message: fmt.Sprintf("%s still holding %s acquired at line %d (defer the unlock or release it on this path)",
				what, key[2:]+lockVerb(key), acqPos.Line),
		})
	}
}

func lockVerb(key string) string {
	if key[0] == 'R' {
		return ".RLock()"
	}
	return ".Lock()"
}

// block interprets a statement list; it returns the held set at
// fall-through and whether every path through the list terminates
// (return/panic) before falling through.
func (c *lockChecker) block(stmts []ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	for _, st := range stmts {
		var term bool
		held, term = c.stmt(st, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (c *lockChecker) stmt(st ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op := classifyLockCall(call); op == opAcquire {
				held[key] = call.Pos()
			} else if op == opRelease {
				delete(held, key)
			}
			if isPanicCall(call) {
				return held, true
			}
		}
	case *ast.DeferStmt:
		for _, key := range deferredLockReleases(s.Call) {
			c.deferred[key] = true
		}
	case *ast.ReturnStmt:
		c.reportHeld(held, s.Pos(), "return")
		return held, true
	case *ast.BlockStmt:
		return c.block(s.List, held)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held)
		}
		thenExit, thenTerm := c.block(s.Body.List, copyHeld(held))
		elseExit, elseTerm := held, false
		if s.Else != nil {
			elseExit, elseTerm = c.stmt(s.Else, copyHeld(held))
		}
		return mergeExits(thenExit, thenTerm, elseExit, elseTerm)
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held)
		}
		bodyExit, _ := c.block(s.Body.List, copyHeld(held))
		return unionHeld(held, bodyExit), false
	case *ast.RangeStmt:
		bodyExit, _ := c.block(s.Body.List, copyHeld(held))
		return unionHeld(held, bodyExit), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held)
		}
		return c.clauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = c.stmt(s.Init, held)
		}
		return c.clauses(s.Body.List, held)
	case *ast.SelectStmt:
		return c.clauses(s.Body.List, held)
	case *ast.BranchStmt:
		// break/continue/goto: the rest of this block is unreachable on
		// this path; loop widening already accounts for the held state.
		return held, true
	}
	return held, false
}

// clauses merges switch/select case bodies: the exit set is the union of
// all non-terminating case exits, plus the entry set when no default
// clause guarantees a case runs.
func (c *lockChecker) clauses(list []ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	hasDefault := false
	allTerm := true
	merged := map[string]token.Pos{}
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
		exit, term := c.block(body, copyHeld(held))
		if !term {
			allTerm = false
			merged = unionHeld(merged, exit)
		}
	}
	if !hasDefault {
		merged = unionHeld(merged, held)
		allTerm = false
	}
	return merged, allTerm
}

// deferredLockReleases extracts the lock keys a deferred call discharges:
// either a direct `defer x.Unlock()` or unlock calls inside a deferred
// closure body.
func deferredLockReleases(call *ast.CallExpr) []string {
	if key, op := classifyLockCall(call); op == opRelease {
		return []string{key}
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var keys []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if inner, ok := n.(*ast.CallExpr); ok {
			if key, op := classifyLockCall(inner); op == opRelease {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

func copyHeld(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func unionHeld(a, b map[string]token.Pos) map[string]token.Pos {
	out := copyHeld(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func mergeExits(a map[string]token.Pos, aTerm bool, b map[string]token.Pos, bTerm bool) (map[string]token.Pos, bool) {
	switch {
	case aTerm && bTerm:
		return map[string]token.Pos{}, true
	case aTerm:
		return b, false
	case bTerm:
		return a, false
	default:
		return unionHeld(a, b), false
	}
}
