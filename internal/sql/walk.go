package sql

// Walk visits e and its subexpressions depth-first, parent before
// children: it calls fn(e), and when fn returns true it walks each
// operand, argument and list element of e in source order. A nil e is
// not visited. Returning false prunes e's subtree, which also lets a
// search stop early.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case Unary:
		Walk(x.X, fn)
	case Binary:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case Between:
		Walk(x.X, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case InList:
		Walk(x.X, fn)
		for _, i := range x.List {
			Walk(i, fn)
		}
	case IsNull:
		Walk(x.X, fn)
	case Call:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	}
}
