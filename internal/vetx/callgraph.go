package vetx

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of vetx: a types-aware call graph
// over every loaded package plus a "locks held at call site" dataflow that
// the lockorder analyzer consumes.
//
// The design is deliberately modest — it is a contract checker, not a
// verifier:
//
//   - Nodes are declared functions and methods (plus each function
//     literal as an anonymous root: a literal's callers are usually
//     dynamic, so it inherits no caller context).
//   - Edges come from static calls and method calls resolved through
//     types.Info. Calls through an interface conservatively fan out to
//     every in-repo concrete method with the same name and signature.
//     Calls through function-typed values (fields, parameters) are not
//     resolved.
//   - Lock identity is the package-qualified struct field or package
//     variable (`storage.Pager.mu`, `engine.gateMu`). Locks on local
//     variables are untracked: the global ordering contract is about
//     long-lived structure locks, and table locks handed out by the
//     LockManager are already deadlock-free by sorted acquisition.
//   - The per-function dataflow is a linear source-order scan:
//     Lock/RLock/TryLock add the lock to the held set, Unlock/RUnlock
//     remove it, a *deferred* unlock keeps it held to the end of the
//     function. TryLock is treated as a successful acquire (the fallible
//     branch returns without the lock, which the linear scan does not
//     model).
//   - Held sets propagate down call edges to a fixed point: if f calls g
//     with A held, every acquire and call inside g also happens under A.
//     `go` statements do not propagate (a spawned goroutine does not
//     hold its parent's locks). Locks that *escape* a function (the
//     acquisition helpers and ownership-transfer closures, such as
//     enterMutation's) deliberately do not flow back up to callers.
type Program struct {
	Packages []*Package
	// Funcs maps canonical function keys ("pkg/path.(Recv).Name") to
	// their nodes, function literals included.
	Funcs map[string]*FuncNode
	// lockAcquirePos remembers one acquire position per lock identity,
	// for rendering witnesses whose provenance chain bottoms out.
	lockAcquirePos map[string]token.Position
}

// FuncNode is one function in the call graph with its lock events.
type FuncNode struct {
	Key  string
	Pkg  *Package
	Name string // display name, e.g. "(*Pager).Fetch" or "func@pager.go:100"
	Pos  token.Pos

	// Acquires are the lock acquisition sites in source order, each with
	// the intra-procedurally held set at that point.
	Acquires []LockAcquire
	// Calls are the resolved call sites in source order.
	Calls []CallSite

	// EntryHeld is filled by the interprocedural fixpoint: locks some
	// caller chain holds around every invocation of this function, with
	// the provenance edge that first introduced each lock.
	EntryHeld map[string]CallerEdge
}

// LockAcquire is one Lock/RLock/TryLock site.
type LockAcquire struct {
	Lock string
	Pos  token.Pos
	// HeldBefore maps the locks already held intra-procedurally at this
	// acquire to their acquire positions.
	HeldBefore map[string]token.Pos
}

// CallSite is one resolved call with the lock context around it.
type CallSite struct {
	Pos token.Pos
	// Callees holds the canonical keys this site may invoke (more than
	// one for interface fan-out). Empty for unresolvable dynamic calls.
	Callees []string
	// Held maps locks held intra-procedurally at this site to their
	// acquire positions.
	Held map[string]token.Pos
	// Go marks `go f()` sites: the callee runs without the caller's locks.
	Go bool
}

// CallerEdge records which caller, at which call site, first propagated a
// lock into a function's entry set.
type CallerEdge struct {
	Caller *FuncNode
	Pos    token.Pos
}

// BuildProgram constructs the call graph and runs the held-locks fixpoint
// over every type-checked package. Packages without type information are
// skipped (the driver reports the type-check failure separately).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Packages:       pkgs,
		Funcs:          map[string]*FuncNode{},
		lockAcquirePos: map[string]token.Position{},
	}
	b := &graphBuilder{
		prog:        prog,
		impls:       map[string][]implEntry{},
		typeMethods: map[string]map[string]bool{},
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		b.collectDecls(pkg)
	}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		b.scanBodies(pkg)
	}
	b.resolveInterfaceCalls()
	prog.propagateHeld()
	return prog
}

// ---------------------------------------------------------------------------
// Node collection

type graphBuilder struct {
	prog *Program
	// impls maps "method|signature" to the concrete methods bearing it,
	// for interface fan-out.
	impls map[string][]implEntry
	// typeMethods maps a receiver type key ("pkg/path.Type") to the
	// name|signature strings of its full pointer method set, so fan-out
	// can require whole-interface satisfaction, not just one matching
	// method. String comparison sidesteps the separate type-check
	// universes Load creates per package.
	typeMethods map[string]map[string]bool
	// pending interface call sites awaiting fan-out resolution.
	pending []pendingIfaceCall
}

// implEntry is one concrete method candidate for interface dispatch.
type implEntry struct {
	key  string // funcKey of the method
	recv string // receiver type key into typeMethods
}

// pendingIfaceCall addresses a call site by node and index (not pointer:
// the Calls slice is still growing while sites are queued).
type pendingIfaceCall struct {
	node    *FuncNode
	index   int
	nameSig string
	// ifaceMethods is the name|signature set of the interface being
	// dispatched through; a candidate type must carry all of them.
	ifaceMethods map[string]bool
}

// funcKey canonicalizes a *types.Func to a node key that is stable across
// the separate type-check universes Load creates per package.
func funcKey(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if name := recvNamedTypeName(sig.Recv().Type()); name != "" {
			return pkgPath + ".(" + name + ")." + fn.Name()
		}
	}
	return pkgPath + "." + fn.Name()
}

// concreteRecv extracts the non-interface named type behind a (possibly
// pointer) receiver.
func concreteRecv(t types.Type) *types.Named {
	n := namedRecv(t)
	if n == nil || types.IsInterface(n) || n.Obj().Pkg() == nil {
		return nil
	}
	return n
}

// methodSetStrings renders a type's full method set (promoted methods
// included) as name|signature strings comparable across type-check
// universes.
func methodSetStrings(t types.Type) map[string]bool {
	out := map[string]bool{}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok {
			out[nameSig(fn)] = true
		}
	}
	return out
}

// recvNamedTypeName extracts the bare named-type name of a receiver.
func recvNamedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// nameSig builds the interface-dispatch matching key: method name plus the
// receiver-less signature rendered with full package paths, so signatures
// from different type-check universes compare equal.
func nameSig(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return fn.Name()
	}
	q := func(p *types.Package) string { return p.Path() }
	noRecv := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return fn.Name() + "|" + types.TypeString(noRecv, q)
}

// collectDecls registers every declared function/method and every function
// literal of a package as graph nodes, and indexes concrete methods for
// interface fan-out.
func (b *graphBuilder) collectDecls(pkg *Package) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(obj)
			node := &FuncNode{
				Key:       key,
				Pkg:       pkg,
				Name:      displayName(obj),
				Pos:       fd.Pos(),
				EntryHeld: map[string]CallerEdge{},
			}
			b.prog.Funcs[key] = node
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				if named := concreteRecv(sig.Recv().Type()); named != nil {
					recvKey := named.Obj().Pkg().Path() + "." + named.Obj().Name()
					if _, ok := b.typeMethods[recvKey]; !ok {
						b.typeMethods[recvKey] = methodSetStrings(types.NewPointer(named))
					}
					b.impls[nameSig(obj)] = append(b.impls[nameSig(obj)], implEntry{key: key, recv: recvKey})
				}
			}
		}
		// Function literals: anonymous roots keyed by position.
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			pos := pkg.Fset.Position(lit.Pos())
			key := fmt.Sprintf("%s.func@%s:%d:%d", pkg.ImportPath, shortFile(pos.Filename), pos.Line, pos.Column)
			b.prog.Funcs[key] = &FuncNode{
				Key:       key,
				Pkg:       pkg,
				Name:      fmt.Sprintf("func@%s:%d", shortFile(pos.Filename), pos.Line),
				Pos:       lit.Pos(),
				EntryHeld: map[string]CallerEdge{},
			}
			return true
		})
	}
}

func displayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			return "(*" + recvNamedTypeName(p.Elem()) + ")." + fn.Name()
		}
		return "(" + recvNamedTypeName(t) + ")." + fn.Name()
	}
	return fn.Name()
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ---------------------------------------------------------------------------
// Body scanning: lock events + call sites

// scanBodies fills Acquires and Calls for every node of a package.
func (b *graphBuilder) scanBodies(pkg *Package) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if node := b.prog.Funcs[funcKey(obj)]; node != nil {
				b.scanBody(pkg, node, fd.Body)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			pos := pkg.Fset.Position(lit.Pos())
			key := fmt.Sprintf("%s.func@%s:%d:%d", pkg.ImportPath, shortFile(pos.Filename), pos.Line, pos.Column)
			if node := b.prog.Funcs[key]; node != nil {
				b.scanBody(pkg, node, lit.Body)
			}
			return true
		})
	}
}

// scanBody does the linear source-order lock dataflow over one function
// body, recording acquire sites and call sites with held-set snapshots.
// Nested function literals are separate nodes and are not descended into.
func (b *graphBuilder) scanBody(pkg *Package, node *FuncNode, body *ast.BlockStmt) {
	held := map[string]token.Pos{}
	deferredCalls := map[*ast.CallExpr]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // separate node
		case *ast.DeferStmt:
			deferredCalls[x.Call] = true
		case *ast.GoStmt:
			goCalls[x.Call] = true
		case *ast.CallExpr:
			b.visitCall(pkg, node, x, held, deferredCalls[x], goCalls[x])
		}
		return true
	}
	ast.Inspect(body, visit)
	// Record a node-level sample acquire position per lock for witness
	// rendering when provenance bottoms out in this function.
	for _, a := range node.Acquires {
		if _, ok := b.prog.lockAcquirePos[a.Lock]; !ok {
			b.prog.lockAcquirePos[a.Lock] = pkg.Fset.Position(a.Pos)
		}
	}
}

type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
)

// lockMethodOp classifies mutex method names, TryLock variants included.
func lockMethodOp(name string) (op lockOp, kind byte) {
	switch name {
	case "Lock", "TryLock":
		return opAcquire, 'W'
	case "RLock", "TryRLock":
		return opAcquire, 'R'
	case "Unlock":
		return opRelease, 'W'
	case "RUnlock":
		return opRelease, 'R'
	}
	return opNone, 0
}

func (b *graphBuilder) visitCall(pkg *Package, node *FuncNode, call *ast.CallExpr, held map[string]token.Pos, deferred, isGo bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if isSel && len(call.Args) == 0 {
		if op, _ := lockMethodOp(sel.Sel.Name); op != opNone {
			if !isMutexMethod(pkg, sel) {
				return
			}
			id := lockIdentity(pkg, sel.X)
			if id == "" {
				return // local or unidentifiable: untracked
			}
			switch op {
			case opAcquire:
				node.Acquires = append(node.Acquires, LockAcquire{
					Lock:       id,
					Pos:        call.Pos(),
					HeldBefore: copyHeld(held),
				})
				held[id] = call.Pos()
			case opRelease:
				if !deferred {
					delete(held, id)
				}
			}
			return
		}
	}
	// Ordinary call: resolve callees.
	site := CallSite{Pos: call.Pos(), Held: copyHeld(held), Go: isGo}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil {
			site.Callees = []string{funcKey(fn)}
		}
	case *ast.SelectorExpr:
		if s := pkg.Info.Selections[fun]; s != nil && s.Kind() == types.MethodVal {
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				break
			}
			if types.IsInterface(s.Recv()) {
				// Interface dispatch: fan out later, once every concrete
				// method in the program is indexed.
				node.Calls = append(node.Calls, site)
				b.pending = append(b.pending, pendingIfaceCall{
					node:         node,
					index:        len(node.Calls) - 1,
					nameSig:      nameSig(fn),
					ifaceMethods: methodSetStrings(s.Recv()),
				})
				return
			}
			site.Callees = []string{funcKey(fn)}
		} else if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			// Qualified call: otherpkg.Func(...).
			site.Callees = []string{funcKey(fn)}
		}
	}
	if len(site.Callees) == 0 {
		return // dynamic call we cannot resolve; nothing to record
	}
	node.Calls = append(node.Calls, site)
}

// isMutexMethod confirms via types that a Lock-shaped call really targets
// sync.Mutex/RWMutex (directly or through a field of those types), not an
// unrelated method that happens to be called Lock.
func isMutexMethod(pkg *Package, sel *ast.SelectorExpr) bool {
	s := pkg.Info.Selections[sel]
	if s == nil {
		// Qualified or unresolvable selector: not a method value on a
		// mutex field.
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync"
}

// lockIdentity renders the package-qualified identity of the mutex
// expression: "pkg.Type.field" for struct fields, "pkg.var" for package
// variables, "" for locals and anything unidentifiable.
func lockIdentity(pkg *Package, x ast.Expr) string {
	switch e := x.(type) {
	case *ast.ParenExpr:
		return lockIdentity(pkg, e.X)
	case *ast.SelectorExpr:
		if s := pkg.Info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
			field := s.Obj()
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + field.Name()
			}
			return ""
		}
		// Qualified package-level var: otherpkg.someMu.
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return ""
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
		return "" // local variable: untracked
	}
	return ""
}

// resolveInterfaceCalls fans pending interface call sites out to every
// concrete method whose receiver type satisfies the whole dispatched
// interface (method-set inclusion by signature strings) — matching one
// method by name alone would weld unrelated implementations together
// wherever two interfaces share a method like Sync() error.
func (b *graphBuilder) resolveInterfaceCalls() {
	for _, p := range b.pending {
		site := &p.node.Calls[p.index]
		for _, ie := range b.impls[p.nameSig] {
			if satisfiesAll(b.typeMethods[ie.recv], p.ifaceMethods) {
				site.Callees = append(site.Callees, ie.key)
			}
		}
	}
	b.pending = nil
}

// satisfiesAll reports whether the candidate method set carries every
// required interface method.
func satisfiesAll(have map[string]bool, required map[string]bool) bool {
	for m := range required {
		if !have[m] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Interprocedural held-set propagation

// propagateHeld pushes caller-held locks down call edges to a fixed point.
func (p *Program) propagateHeld() {
	work := make([]*FuncNode, 0, len(p.Funcs))
	for _, n := range p.Funcs {
		work = append(work, n)
	}
	// Deterministic seed order keeps provenance (and thus messages) stable.
	sort.Slice(work, func(i, j int) bool { return work[i].Key < work[j].Key })
	queued := map[string]bool{}
	for _, n := range work {
		queued[n.Key] = true
	}
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		queued[f.Key] = false
		for i := range f.Calls {
			site := &f.Calls[i]
			if site.Go {
				continue // goroutine: caller's locks are not held there
			}
			for _, calleeKey := range site.Callees {
				g := p.Funcs[calleeKey]
				if g == nil || g == f {
					continue
				}
				changed := false
				add := func(lock string) {
					if _, ok := g.EntryHeld[lock]; !ok {
						g.EntryHeld[lock] = CallerEdge{Caller: f, Pos: site.Pos}
						changed = true
					}
				}
				for lock := range site.Held {
					add(lock)
				}
				for lock := range f.EntryHeld {
					add(lock)
				}
				if changed && !queued[g.Key] {
					queued[g.Key] = true
					work = append(work, g)
				}
			}
		}
	}
}

// HoldChain renders how lock became held around an event inside f: either
// "acquired at <pos>" (intra) or a caller chain "via <f> ← <g> …".
func (p *Program) HoldChain(f *FuncNode, lock string, intra map[string]token.Pos) string {
	if pos, ok := intra[lock]; ok {
		return fmt.Sprintf("acquired at %s in %s", p.fposition(f, pos), f.Name)
	}
	var steps []string
	cur := f
	for hops := 0; hops < 32; hops++ {
		edge, ok := cur.EntryHeld[lock]
		if !ok || edge.Caller == nil {
			break
		}
		steps = append(steps, fmt.Sprintf("%s (call at %s)", edge.Caller.Name, p.fposition(edge.Caller, edge.Pos)))
		// Did the caller hold it intra-procedurally at that site?
		if sitePos, found := callerIntraHeld(edge.Caller, edge.Pos, lock); found {
			steps = append(steps, fmt.Sprintf("acquired at %s", p.fposition(edge.Caller, sitePos)))
			break
		}
		cur = edge.Caller
	}
	if len(steps) == 0 {
		if pos, ok := p.lockAcquirePos[lock]; ok {
			return fmt.Sprintf("acquired at %s", trimPos(pos))
		}
		return "held by a caller"
	}
	return "held via " + strings.Join(steps, " ← ")
}

func copyHeld(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// callerIntraHeld finds the acquire position of lock in caller's intra
// held set at the given call site.
func callerIntraHeld(caller *FuncNode, sitePos token.Pos, lock string) (token.Pos, bool) {
	for i := range caller.Calls {
		if caller.Calls[i].Pos == sitePos {
			pos, ok := caller.Calls[i].Held[lock]
			return pos, ok
		}
	}
	return token.NoPos, false
}

func (p *Program) fposition(f *FuncNode, pos token.Pos) string {
	return trimPos(f.Pkg.Fset.Position(pos))
}

// trimPos renders file:line with the directory stripped: witness chains
// cite several positions and full paths would drown the message.
func trimPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line)
}
