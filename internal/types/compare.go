package types

import "strings"

// Compare orders two non-NULL values of the same comparable kind.
// It returns (-1|0|+1, true) when the pair is comparable, and (0, false)
// when either side is NULL or the kinds are incompatible — the SQL
// "unknown" outcome. Numbers compare numerically, strings
// lexicographically (byte order, as Oracle does with BINARY sorting),
// booleans with FALSE < TRUE, LOB locators by id, and arrays
// element-wise (shorter prefix first). Objects are not ordered.
func Compare(a, b Value) (int, bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindNumber, KindLOB, KindBool:
		switch {
		case a.num < b.num:
			return -1, true
		case a.num > b.num:
			return 1, true
		}
		return 0, true
	case KindString:
		return strings.Compare(a.str, b.str), true
	case KindArray:
		ae, be := a.obj.Attrs, b.obj.Attrs
		n := min(len(ae), len(be))
		for i := 0; i < n; i++ {
			c, ok := Compare(ae[i], be[i])
			if !ok {
				return 0, false
			}
			if c != 0 {
				return c, true
			}
		}
		switch {
		case len(ae) < len(be):
			return -1, true
		case len(ae) > len(be):
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal under SQL semantics
// (NULL equals nothing, including NULL). Objects compare by type name and
// element-wise attribute equality.
func Equal(a, b Value) bool {
	if a.kind == KindObject && b.kind == KindObject {
		if !strings.EqualFold(a.obj.TypeName, b.obj.TypeName) || len(a.obj.Attrs) != len(b.obj.Attrs) {
			return false
		}
		for i := range a.obj.Attrs {
			if !Equal(a.obj.Attrs[i], b.obj.Attrs[i]) {
				return false
			}
		}
		return true
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Identical reports whether two values are indistinguishable, treating
// NULL as identical to NULL. It is the equality used by storage-level
// round-trip checks and tests, not by SQL predicates.
func Identical(a, b Value) bool {
	if a.kind == KindNull && b.kind == KindNull {
		return true
	}
	if a.kind != b.kind {
		return false
	}
	if a.kind == KindObject || a.kind == KindArray {
		// A VARRAY is an untyped Object: its elements are the attributes.
		if !strings.EqualFold(a.obj.TypeName, b.obj.TypeName) || len(a.obj.Attrs) != len(b.obj.Attrs) {
			return false
		}
		for i := range a.obj.Attrs {
			if !Identical(a.obj.Attrs[i], b.obj.Attrs[i]) {
				return false
			}
		}
		return true
	}
	return Equal(a, b)
}

// Less is a total order used for sorting rows: NULLs sort last, mixed
// kinds sort by kind id, and otherwise Compare decides. It exists so that
// ORDER BY produces a deterministic order even on heterogeneous input.
func Less(a, b Value) bool {
	if a.kind == KindNull {
		return false // NULLs last
	}
	if b.kind == KindNull {
		return true
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	c, ok := Compare(a, b)
	return ok && c < 0
}

// CoerceKind returns the value of kind k that v equals under SQL
// comparison, and false when there is none. A value already of kind k is
// itself. BOOLEAN and NUMBER are the one pair that cross: TRUE equals 1
// and FALSE equals 0, so a BOOLEAN always has a NUMBER and only a NUMBER
// 0 or 1 has a BOOLEAN. NULL equals nothing. Predicates such as
// Contains(...) = 1 compare a BOOLEAN with a NUMBER, and an index probe
// must find exactly the keys such a predicate accepts.
func CoerceKind(v Value, k Kind) (Value, bool) {
	switch {
	case v.kind == KindNull:
		return Value{}, false
	case v.kind == k:
		return v, true
	case v.kind == KindBool && k == KindNumber:
		return Num(v.num), true
	case v.kind == KindNumber && k == KindBool && (v.num == 0 || v.num == 1):
		return Bool(v.num == 1), true
	}
	return Value{}, false
}
