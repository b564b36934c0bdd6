// Package types implements the SQL value system of the engine: typed
// values (NULL, NUMBER, VARCHAR2, BOOLEAN, LOB locators, OBJECT instances
// and VARRAY collections), three-valued comparison semantics, and a compact
// binary codec used by the storage layer and the index implementations.
//
// The set of kinds mirrors the data types used throughout the paper:
// scalar columns (NUMBER, VARCHAR2), object type columns (OBJECT),
// collection columns (ARRAY, for VARRAY/nested tables) and LOB columns.
package types

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	// KindNumber is the NUMBER type (stored as float64; integral values
	// round-trip exactly up to 2^53).
	KindNumber
	// KindString is the VARCHAR2 type.
	KindString
	// KindBool is the BOOLEAN type returned by operators and predicates.
	KindBool
	// KindLOB is a large-object locator referencing out-of-line data
	// managed by the LOB store (see internal/loblib).
	KindLOB
	// KindObject is an instance of a user-defined object type.
	KindObject
	// KindArray is a VARRAY / nested-table collection value.
	KindArray
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindNumber:
		return "NUMBER"
	case KindString:
		return "VARCHAR2"
	case KindBool:
		return "BOOLEAN"
	case KindLOB:
		return "LOB"
	case KindObject:
		return "OBJECT"
	case KindArray:
		return "VARRAY"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a SQL type name to a Kind. It accepts the spellings used
// in the paper's examples (VARCHAR, VARCHAR2, INTEGER, NUMBER, ...).
func ParseKind(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "NUMBER", "INTEGER", "INT", "FLOAT", "DOUBLE":
		return KindNumber, nil
	case "VARCHAR", "VARCHAR2", "CHAR", "TEXT", "STRING", "CLOB":
		return KindString, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	case "LOB", "BLOB":
		return KindLOB, nil
	case "OBJECT":
		return KindObject, nil
	case "VARRAY", "ARRAY":
		return KindArray, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Object is an instance of a user-defined object type: a type name plus a
// fixed list of attribute values. Attribute order is positional and matches
// the registered TypeDesc.
type Object struct {
	TypeName string
	Attrs    []Value
}

// Value is a single SQL value. The zero Value is NULL.
//
// A Value is 40 bytes, because scans build millions of them: num holds
// a NUMBER, a LOB id, or a BOOLEAN as 1 (TRUE) or 0 (FALSE); obj holds
// an OBJECT instance or, with an empty TypeName, a VARRAY's elements in
// Attrs. The accessors hide both sharings, so Float of a BOOLEAN is 0
// and Object of a VARRAY is nil.
type Value struct {
	kind Kind
	num  float64
	str  string
	obj  *Object
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Num returns a NUMBER value.
func Num(f float64) Value { return Value{kind: KindNumber, num: f} }

// Int returns a NUMBER value holding an integer.
func Int(i int64) Value { return Value{kind: KindNumber, num: float64(i)} }

// Str returns a VARCHAR2 value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Bool returns a BOOLEAN value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// LOB returns a LOB locator value referencing the given LOB id.
func LOB(id int64) Value { return Value{kind: KindLOB, num: float64(id)} }

// Obj returns an OBJECT value.
func Obj(typeName string, attrs ...Value) Value {
	return Value{kind: KindObject, obj: &Object{TypeName: typeName, Attrs: attrs}}
}

// Arr returns a VARRAY value with the given elements.
func Arr(elems ...Value) Value {
	return Value{kind: KindArray, obj: &Object{Attrs: elems}}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Float returns the NUMBER payload (a LOB locator's id for a LOB); it is
// 0 for the other kinds.
func (v Value) Float() float64 {
	if v.kind == KindBool {
		return 0
	}
	return v.num
}

// Int64 returns Float truncated to an integer.
func (v Value) Int64() int64 { return int64(v.Float()) }

// Text returns the VARCHAR2 payload; it is "" for non-strings.
func (v Value) Text() string { return v.str }

// Truth returns the BOOLEAN payload; NULL and non-booleans are false.
func (v Value) Truth() bool { return v.kind == KindBool && v.num != 0 }

// LOBID returns the LOB locator id, or 0 if the value is not a LOB.
func (v Value) LOBID() int64 {
	if v.kind != KindLOB {
		return 0
	}
	return int64(v.num)
}

// Object returns the object payload, or nil.
func (v Value) Object() *Object {
	if v.kind != KindObject {
		return nil
	}
	return v.obj
}

// Elems returns the collection elements, or nil for non-arrays. The
// returned slice must not be mutated.
func (v Value) Elems() []Value {
	if v.kind != KindArray {
		return nil
	}
	return v.obj.Attrs
}

// String renders the value for display (REPL output, errors, tests).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindNumber:
		if v.num == math.Trunc(v.num) && math.Abs(v.num) < 1e15 {
			return strconv.FormatInt(int64(v.num), 10)
		}
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case KindString:
		return v.str
	case KindBool:
		if v.num != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindLOB:
		return fmt.Sprintf("LOB(%d)", int64(v.num))
	case KindObject:
		parts := make([]string, len(v.obj.Attrs))
		for i, a := range v.obj.Attrs {
			parts[i] = a.String()
		}
		return v.obj.TypeName + "(" + strings.Join(parts, ", ") + ")"
	case KindArray:
		parts := make([]string, len(v.obj.Attrs))
		for i, e := range v.obj.Attrs {
			parts[i] = e.String()
		}
		return "VARRAY(" + strings.Join(parts, ", ") + ")"
	default:
		return fmt.Sprintf("<%s>", v.kind)
	}
}

// TypeDesc describes a user-defined object type: its name and attribute
// names/kinds. It lives in the catalog; the types package only defines the
// shape so that values can be validated against it.
type TypeDesc struct {
	Name      string
	AttrNames []string
	AttrKinds []Kind
}

// AttrIndex returns the positional index of the named attribute
// (case-insensitive), or -1.
func (td *TypeDesc) AttrIndex(name string) int {
	for i, n := range td.AttrNames {
		if strings.EqualFold(n, name) {
			return i
		}
	}
	return -1
}

// Validate checks that an object value conforms to the descriptor.
func (td *TypeDesc) Validate(v Value) error {
	o := v.Object()
	if o == nil {
		return fmt.Errorf("types: value %s is not an object", v)
	}
	if !strings.EqualFold(o.TypeName, td.Name) {
		return fmt.Errorf("types: object of type %s where %s expected", o.TypeName, td.Name)
	}
	if len(o.Attrs) != len(td.AttrKinds) {
		return fmt.Errorf("types: object %s has %d attrs, want %d", td.Name, len(o.Attrs), len(td.AttrKinds))
	}
	for i, a := range o.Attrs {
		if a.IsNull() {
			continue
		}
		if a.Kind() != td.AttrKinds[i] {
			return fmt.Errorf("types: attr %s of %s has kind %s, want %s",
				td.AttrNames[i], td.Name, a.Kind(), td.AttrKinds[i])
		}
	}
	return nil
}

// SortValues sorts values in ascending Compare order, NULLs last (Oracle's
// default ordering).
func SortValues(vs []Value) {
	sort.SliceStable(vs, func(i, j int) bool {
		return Less(vs[i], vs[j])
	})
}
