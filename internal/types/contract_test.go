package types

import (
	"fmt"
	"testing"
	"unsafe"
)

// The Value contract: a Value is 40 bytes, BOOLEAN shares the NUMBER
// payload and VARRAY elements share the OBJECT pointer, and none of that
// shows through the accessors, the codec or the comparisons.

func TestValueIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
}

// TestAccessorsEveryKind pins what every accessor returns for every
// kind: the payload for its own kind and a zero value for the others,
// except that Float and Int64 also read a LOB locator's id.
func TestAccessorsEveryKind(t *testing.T) {
	pt := Obj("PT", Num(1), Str("a"))
	arr := Arr(Int(1), Str("b"), Null())
	type want struct {
		float float64
		int64 int64
		text  string
		truth bool
		lobID int64
		obj   bool // Object() != nil
		elems int  // len(Elems()); -1 means Elems() == nil
		str   string
	}
	for _, tc := range []struct {
		v    Value
		kind Kind
		want want
	}{
		{Null(), KindNull, want{elems: -1, str: "NULL"}},
		{Num(-2.5), KindNumber, want{float: -2.5, int64: -2, elems: -1, str: "-2.5"}},
		{Str("hi"), KindString, want{text: "hi", elems: -1, str: "hi"}},
		{Bool(true), KindBool, want{truth: true, elems: -1, str: "TRUE"}},
		{Bool(false), KindBool, want{elems: -1, str: "FALSE"}},
		{LOB(9), KindLOB, want{float: 9, int64: 9, lobID: 9, elems: -1, str: "LOB(9)"}},
		{pt, KindObject, want{obj: true, elems: -1, str: "PT(1, a)"}},
		{arr, KindArray, want{elems: 3, str: "VARRAY(1, b, NULL)"}},
		{Arr(), KindArray, want{elems: 0, str: "VARRAY()"}},
	} {
		v, w := tc.v, tc.want
		elems := -1
		if v.Elems() != nil || v.Kind() == KindArray {
			elems = len(v.Elems())
		}
		got := want{v.Float(), v.Int64(), v.Text(), v.Truth(), v.LOBID(), v.Object() != nil, elems, v.String()}
		if v.Kind() != tc.kind || got != w {
			t.Errorf("%s: kind %s, accessors %+v; want kind %s, %+v", v, v.Kind(), got, tc.kind, w)
		}
		if v.IsNull() != (tc.kind == KindNull) {
			t.Errorf("%s: IsNull = %v", v, v.IsNull())
		}
	}
	if o := pt.Object(); o.TypeName != "PT" || len(o.Attrs) != 2 || o.Attrs[1].Text() != "a" {
		t.Errorf("object payload %+v", o)
	}
	if e := arr.Elems(); e[0].Int64() != 1 || e[1].Text() != "b" || !e[2].IsNull() {
		t.Errorf("array payload %v", e)
	}
}

// TestCodecRoundTripNested round-trips objects and arrays nested inside
// each other, whole and through every column mask.
func TestCodecRoundTripNested(t *testing.T) {
	row := []Value{
		Obj("OUTER", Arr(Obj("PT", Num(1), Bool(true)), Arr()), Str("s"), Null()),
		Arr(Arr(Bool(false), LOB(3)), Obj("EMPTY"), Str("x")),
		Bool(true),
		Arr(),
	}
	enc := EncodeRow(nil, row)
	dec, n, err := DecodeRow(enc)
	if err != nil || n != len(enc) || len(dec) != len(row) {
		t.Fatalf("DecodeRow: %v, %d of %d bytes, %d columns", err, n, len(enc), len(dec))
	}
	for i := range row {
		if !Identical(dec[i], row[i]) || dec[i].String() != row[i].String() {
			t.Errorf("column %d: got %s, want %s", i, dec[i], row[i])
		}
	}
	for mask := 0; mask < 1<<len(row); mask++ {
		read := make([]bool, len(row))
		for i := range read {
			read[i] = mask&(1<<i) != 0
		}
		prefix := []Value{Int(7)}
		got, n, err := AppendDecoded(prefix, enc, read)
		if err != nil || n != len(enc) || len(got) != 1+len(row) || got[0].Int64() != 7 {
			t.Fatalf("mask %v: %v, %d of %d bytes, %v", read, err, n, len(enc), got)
		}
		for i := range row {
			want := Null()
			if read[i] {
				want = row[i]
			}
			if !Identical(got[1+i], want) {
				t.Errorf("mask %v column %d: got %s, want %s", read, i, got[1+i], want)
			}
		}
	}
}

// TestMaskedDecodeChecksSkippedColumns: a skipped column is still
// framed, so a truncated image is an error whatever the mask.
func TestMaskedDecodeChecksSkippedColumns(t *testing.T) {
	enc := EncodeRow(nil, []Value{Int(1), Arr(Str("abc"), Obj("PT", Num(2)))})
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := AppendDecoded(nil, enc[:cut], []bool{true, false}); err == nil {
			t.Errorf("image cut to %d of %d bytes decoded without error", cut, len(enc))
		}
	}
}

func TestCompareBooleansAndArrays(t *testing.T) {
	T, F := Bool(true), Bool(false)
	for _, tc := range []struct {
		a, b      Value
		cmp       int
		ok        bool
		equal     bool
		identical bool
	}{
		{F, T, -1, true, false, false},
		{T, F, 1, true, false, false},
		{T, T, 0, true, true, true},
		{F, F, 0, true, true, true},
		{T, Int(1), 0, false, false, false}, // no coercion at this level
		{F, Int(0), 0, false, false, false},
		{F, Null(), 0, false, false, false},
		{Arr(Int(1), Int(2)), Arr(Int(1), Int(3)), -1, true, false, false},
		{Arr(Int(1)), Arr(Int(1), Int(0)), -1, true, false, false},
		{Arr(Int(2)), Arr(Int(1), Int(0)), 1, true, false, false},
		{Arr(T, Str("a")), Arr(T, Str("a")), 0, true, true, true},
		{Arr(), Arr(), 0, true, true, true},
		{Arr(Null()), Arr(Null()), 0, false, false, true},
		{Arr(Int(1)), Arr(Str("1")), 0, false, false, false},
		{Arr(Int(1)), Obj("", Int(1)), 0, false, false, false},
	} {
		c, ok := Compare(tc.a, tc.b)
		label := fmt.Sprintf("%s vs %s", tc.a, tc.b)
		if c != tc.cmp || ok != tc.ok {
			t.Errorf("%s: Compare = (%d, %v), want (%d, %v)", label, c, ok, tc.cmp, tc.ok)
		}
		if got := Equal(tc.a, tc.b); got != tc.equal {
			t.Errorf("%s: Equal = %v", label, got)
		}
		if got := Identical(tc.a, tc.b); got != tc.identical {
			t.Errorf("%s: Identical = %v", label, got)
		}
	}
	if !Less(F, T) || Less(T, F) || !Less(T, Null()) {
		t.Error("Less orders FALSE < TRUE < NULL")
	}
}

func TestCoerceKind(t *testing.T) {
	T, F := Bool(true), Bool(false)
	for _, tc := range []struct {
		v    Value
		k    Kind
		want Value
		ok   bool
	}{
		{T, KindNumber, Int(1), true},
		{F, KindNumber, Int(0), true},
		{Int(1), KindBool, T, true},
		{Int(0), KindBool, F, true},
		{Int(2), KindBool, Null(), false},
		{Num(0.5), KindBool, Null(), false},
		{T, KindBool, T, true},
		{Int(7), KindNumber, Int(7), true},
		{Str("1"), KindNumber, Null(), false},
		{Int(1), KindString, Null(), false},
		{Null(), KindNumber, Null(), false},
		{Null(), KindNull, Null(), false},
	} {
		got, ok := CoerceKind(tc.v, tc.k)
		if ok != tc.ok || !Identical(got, tc.want) {
			t.Errorf("CoerceKind(%s, %s) = (%s, %v), want (%s, %v)", tc.v, tc.k, got, ok, tc.want, tc.ok)
		}
		if ok && got.Kind() != tc.k {
			t.Errorf("CoerceKind(%s, %s) returned kind %s", tc.v, tc.k, got.Kind())
		}
	}
}
