package exec

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/types"
)

// Env supplies the executor with everything expression evaluation needs
// beyond the row itself: registered functions, user-operator functional
// implementations, and ancillary data produced by a domain index scan in
// the same statement (the Score/Contains label mechanism).
type Env interface {
	// CallFunction invokes a registered function; found=false if the name
	// is not a function.
	CallFunction(name string, args []types.Value) (v types.Value, found bool, err error)
	// CallOperator invokes the functional implementation of a user-defined
	// operator; found=false if the name is not an operator.
	CallOperator(name string, args []types.Value) (v types.Value, found bool, err error)
	// AncillaryValue returns the ancillary value tagged with label for the
	// current row, when a domain scan produced one.
	AncillaryValue(label int64) (types.Value, bool)
	// IsAncillaryOp reports whether name is an ancillary operator (like
	// Score) and returns its primary operator.
	IsAncillaryOp(name string) (primary string, ok bool)
}

// Compiled is a compiled expression: evaluate against a row.
type Compiled func(row Row) (types.Value, error)

// Truthy converts a SQL value to a predicate outcome. Booleans are taken
// directly; numbers follow the paper's convention that operator predicates
// are written Contains(...) = 1, so non-zero is true. NULL is not true.
func Truthy(v types.Value) bool {
	switch v.Kind() {
	case types.KindBool:
		return v.Truth()
	case types.KindNumber:
		return v.Float() != 0
	default:
		return false
	}
}

// Compile translates an AST expression into a closure over rows of the
// given schema. Binds are resolved at compile time against params.
func Compile(e sql.Expr, schema *Schema, env Env, params []types.Value) (Compiled, error) {
	switch x := e.(type) {
	case sql.Literal:
		v := x.Value
		return func(Row) (types.Value, error) { return v, nil }, nil

	case sql.Bind:
		if x.Pos >= len(params) {
			return nil, fmt.Errorf("exec: bind %d out of range (%d params)", x.Pos, len(params))
		}
		v := params[x.Pos]
		return func(Row) (types.Value, error) { return v, nil }, nil

	case sql.ColumnRef:
		idx, err := schema.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return func(r Row) (types.Value, error) {
			if idx >= len(r) {
				return types.Null(), fmt.Errorf("exec: row too short for column %d", idx)
			}
			return r[idx], nil
		}, nil

	case sql.Unary:
		sub, err := Compile(x.X, schema, env, params)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(r Row) (types.Value, error) {
				v, err := sub(r)
				if err != nil {
					return types.Null(), err
				}
				if v.IsNull() {
					return types.Null(), nil
				}
				return types.Bool(!Truthy(v)), nil
			}, nil
		case "-":
			return func(r Row) (types.Value, error) {
				v, err := sub(r)
				if err != nil || v.IsNull() {
					return types.Null(), err
				}
				if v.Kind() != types.KindNumber {
					return types.Null(), fmt.Errorf("exec: unary minus on %s", v.Kind())
				}
				return types.Num(-v.Float()), nil
			}, nil
		}
		return nil, fmt.Errorf("exec: unknown unary op %q", x.Op)

	case sql.Binary:
		return compileBinary(x, schema, env, params)

	case sql.Between:
		sub, err := Compile(x.X, schema, env, params)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(x.Lo, schema, env, params)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(x.Hi, schema, env, params)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(r Row) (types.Value, error) {
			v, err := sub(r)
			if err != nil {
				return types.Null(), err
			}
			l, err := lo(r)
			if err != nil {
				return types.Null(), err
			}
			h, err := hi(r)
			if err != nil {
				return types.Null(), err
			}
			c1, ok1 := types.Compare(v, l)
			c2, ok2 := types.Compare(v, h)
			if !ok1 || !ok2 {
				return types.Null(), nil
			}
			in := c1 >= 0 && c2 <= 0
			if not {
				in = !in
			}
			return types.Bool(in), nil
		}, nil

	case sql.InList:
		sub, err := Compile(x.X, schema, env, params)
		if err != nil {
			return nil, err
		}
		items := make([]Compiled, len(x.List))
		for i, it := range x.List {
			c, err := Compile(it, schema, env, params)
			if err != nil {
				return nil, err
			}
			items[i] = c
		}
		not := x.Not
		return func(r Row) (types.Value, error) {
			v, err := sub(r)
			if err != nil {
				return types.Null(), err
			}
			if v.IsNull() {
				return types.Null(), nil
			}
			for _, item := range items {
				iv, err := item(r)
				if err != nil {
					return types.Null(), err
				}
				if types.Equal(v, iv) {
					return types.Bool(!not), nil
				}
			}
			return types.Bool(not), nil
		}, nil

	case sql.IsNull:
		sub, err := Compile(x.X, schema, env, params)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(r Row) (types.Value, error) {
			v, err := sub(r)
			if err != nil {
				return types.Null(), err
			}
			return types.Bool(v.IsNull() != not), nil
		}, nil

	case sql.Call:
		return compileCall(x, schema, env, params)
	}
	return nil, fmt.Errorf("exec: cannot compile %T", e)
}

func compileBinary(x sql.Binary, schema *Schema, env Env, params []types.Value) (Compiled, error) {
	l, err := Compile(x.L, schema, env, params)
	if err != nil {
		return nil, err
	}
	r, err := Compile(x.R, schema, env, params)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		return func(row Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			if !lv.IsNull() && !Truthy(lv) {
				return types.Bool(false), nil // short circuit
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			if !rv.IsNull() && !Truthy(rv) {
				return types.Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.Bool(true), nil
		}, nil
	case "OR":
		return func(row Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			if Truthy(lv) {
				return types.Bool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			if Truthy(rv) {
				return types.Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.Bool(false), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		op := x.Op
		return func(row Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			c, ok := types.Compare(lv, rv)
			if !ok {
				// A BOOLEAN compares with a NUMBER as 1 or 0.
				lv2, lok := types.CoerceKind(lv, types.KindNumber)
				rv2, rok := types.CoerceKind(rv, types.KindNumber)
				if !lok || !rok {
					return types.Null(), nil
				}
				c, ok = types.Compare(lv2, rv2)
				if !ok {
					return types.Null(), nil
				}
			}
			var out bool
			switch op {
			case "=":
				out = c == 0
			case "!=":
				out = c != 0
			case "<":
				out = c < 0
			case "<=":
				out = c <= 0
			case ">":
				out = c > 0
			case ">=":
				out = c >= 0
			}
			return types.Bool(out), nil
		}, nil
	case "+", "-", "*", "/":
		op := x.Op
		return func(row Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			if lv.Kind() != types.KindNumber || rv.Kind() != types.KindNumber {
				return types.Null(), fmt.Errorf("exec: arithmetic on %s and %s", lv.Kind(), rv.Kind())
			}
			a, b := lv.Float(), rv.Float()
			switch op {
			case "+":
				return types.Num(a + b), nil
			case "-":
				return types.Num(a - b), nil
			case "*":
				return types.Num(a * b), nil
			case "/":
				if b == 0 {
					return types.Null(), fmt.Errorf("exec: division by zero")
				}
				return types.Num(a / b), nil
			}
			return types.Null(), nil
		}, nil
	case "||":
		return func(row Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			return types.Str(lv.String() + rv.String()), nil
		}, nil
	case "LIKE":
		return func(row Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			return types.Bool(likeMatch(lv.Text(), rv.Text())), nil
		}, nil
	}
	return nil, fmt.Errorf("exec: unknown binary op %q", x.Op)
}

// likeMatch implements SQL LIKE with % and _ wildcards (no escape).
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer algorithm with backtracking on %.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, match = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func compileCall(x sql.Call, schema *Schema, env Env, params []types.Value) (Compiled, error) {
	if x.Star {
		return nil, fmt.Errorf("exec: %s(*) is only valid as an aggregate", x.Name)
	}
	// Ancillary operators (Score(label)) read the per-row ancillary value
	// produced by the domain scan that evaluated the primary operator.
	if env != nil {
		if _, ok := env.IsAncillaryOp(x.Name); ok {
			if len(x.Args) != 1 {
				return nil, fmt.Errorf("exec: ancillary operator %s takes exactly one label argument", x.Name)
			}
			labelC, err := Compile(x.Args[0], schema, env, params)
			if err != nil {
				return nil, err
			}
			return func(r Row) (types.Value, error) {
				lv, err := labelC(r)
				if err != nil {
					return types.Null(), err
				}
				if v, ok := env.AncillaryValue(lv.Int64()); ok {
					return v, nil
				}
				return types.Null(), nil
			}, nil
		}
	}
	args := make([]Compiled, len(x.Args))
	for i, a := range x.Args {
		c, err := Compile(a, schema, env, params)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	evalArgs := func(r Row) ([]types.Value, error) {
		vals := make([]types.Value, len(args))
		for i, a := range args {
			v, err := a(r)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	}
	if env == nil {
		return nil, fmt.Errorf("exec: no environment to resolve call %s", x.Name)
	}
	fnName := x.Name
	return func(r Row) (types.Value, error) {
		vals, err := evalArgs(r)
		if err != nil {
			return types.Null(), err
		}
		// Operators take precedence (their functional implementation is a
		// function anyway), then plain functions.
		if v, found, err := env.CallOperator(fnName, vals); found {
			return v, err
		}
		if v, found, err := env.CallFunction(fnName, vals); found {
			return v, err
		}
		return types.Null(), fmt.Errorf("exec: unknown function or operator %q", fnName)
	}, nil
}
