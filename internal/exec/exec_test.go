package exec

import (
	"fmt"
	"testing"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// fakeEnv provides a function registry for expression tests.
type fakeEnv struct {
	fns map[string]func([]types.Value) (types.Value, error)
	anc map[int64]types.Value
}

func (e fakeEnv) CallFunction(name string, args []types.Value) (types.Value, bool, error) {
	if f, ok := e.fns[name]; ok {
		v, err := f(args)
		return v, true, err
	}
	return types.Null(), false, nil
}

func (e fakeEnv) CallOperator(string, []types.Value) (types.Value, bool, error) {
	return types.Null(), false, nil
}

func (e fakeEnv) AncillaryValue(label int64) (types.Value, bool) {
	v, ok := e.anc[label]
	return v, ok
}

func (e fakeEnv) IsAncillaryOp(name string) (string, bool) {
	if name == "Score" {
		return "Contains", true
	}
	return "", false
}

func compileExpr(t *testing.T, src string, schema *Schema, env Env, params []types.Value) Compiled {
	t.Helper()
	st, err := sql.Parse("SELECT " + src + " FROM dual")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	e := st.(*sql.Select).Items[0].Expr
	c, err := Compile(e, schema, env, params)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return c
}

func evalStr(t *testing.T, src string, row Row, schema *Schema) types.Value {
	t.Helper()
	env := fakeEnv{fns: map[string]func([]types.Value) (types.Value, error){
		"double": func(args []types.Value) (types.Value, error) { return types.Num(args[0].Float() * 2), nil },
	}}
	c := compileExpr(t, src, schema, env, nil)
	v, err := c(row)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestExprEvaluation(t *testing.T) {
	schema := &Schema{Cols: []SchemaCol{{Qualifier: "t", Name: "a"}, {Qualifier: "t", Name: "b"}}}
	row := Row{types.Num(6), types.Str("hi")}
	cases := []struct {
		src  string
		want types.Value
	}{
		{"1 + 2 * 3", types.Num(7)},
		{"(1 + 2) * 3", types.Num(9)},
		{"a - 1", types.Num(5)},
		{"-a", types.Num(-6)},
		{"a = 6", types.Bool(true)},
		{"a != 6", types.Bool(false)},
		{"a > 5 AND b = 'hi'", types.Bool(true)},
		{"a < 5 OR b = 'hi'", types.Bool(true)},
		{"NOT a = 6", types.Bool(false)},
		{"a BETWEEN 5 AND 7", types.Bool(true)},
		{"a NOT BETWEEN 5 AND 7", types.Bool(false)},
		{"a IN (1, 6, 9)", types.Bool(true)},
		{"a IN (1, 2)", types.Bool(false)},
		{"b IS NULL", types.Bool(false)},
		{"b IS NOT NULL", types.Bool(true)},
		{"b LIKE 'h%'", types.Bool(true)},
		{"b LIKE '_i'", types.Bool(true)},
		{"b LIKE 'x%'", types.Bool(false)},
		{"b || '!'", types.Str("hi!")},
		{"double(a)", types.Num(12)},
		{"t.a + 1", types.Num(7)},
	}
	for _, c := range cases {
		got := evalStr(t, c.src, row, schema)
		if !types.Identical(got, c.want) {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestExprNullSemantics(t *testing.T) {
	schema := &Schema{Cols: []SchemaCol{{Name: "n"}}}
	row := Row{types.Null()}
	for _, src := range []string{"n = 1", "n + 1", "n BETWEEN 1 AND 2", "n IN (1,2)", "-n"} {
		got := evalStr(t, src, row, schema)
		if !got.IsNull() {
			t.Errorf("%q with NULL = %s, want NULL", src, got)
		}
	}
	// Three-valued AND/OR.
	if got := evalStr(t, "n = 1 AND 1 = 2", row, schema); !types.Identical(got, types.Bool(false)) {
		t.Errorf("NULL AND FALSE = %s", got)
	}
	if got := evalStr(t, "n = 1 OR 1 = 1", row, schema); !types.Identical(got, types.Bool(true)) {
		t.Errorf("NULL OR TRUE = %s", got)
	}
	if got := evalStr(t, "n = 1 OR 1 = 2", row, schema); !got.IsNull() {
		t.Errorf("NULL OR FALSE = %s", got)
	}
	if got := evalStr(t, "n IS NULL", row, schema); !types.Identical(got, types.Bool(true)) {
		t.Errorf("IS NULL = %s", got)
	}
}

func TestExprErrors(t *testing.T) {
	schema := &Schema{Cols: []SchemaCol{{Name: "a"}}}
	st, _ := sql.Parse("SELECT nope FROM t")
	if _, err := Compile(st.(*sql.Select).Items[0].Expr, schema, fakeEnv{}, nil); err == nil {
		t.Error("unknown column compiled")
	}
	// Ambiguous unqualified column.
	amb := &Schema{Cols: []SchemaCol{{Qualifier: "x", Name: "a"}, {Qualifier: "y", Name: "a"}}}
	st, _ = sql.Parse("SELECT a FROM t")
	if _, err := Compile(st.(*sql.Select).Items[0].Expr, amb, fakeEnv{}, nil); err == nil {
		t.Error("ambiguous column compiled")
	}
	// Division by zero errors at evaluation time.
	c := compileExpr(t, "1 / (a - 1)", schema, fakeEnv{}, nil)
	if _, err := c(Row{types.Num(1)}); err == nil {
		t.Error("division by zero succeeded")
	}
	// Unknown function errors at evaluation time.
	c = compileExpr(t, "mystery(a)", schema, fakeEnv{fns: map[string]func([]types.Value) (types.Value, error){}}, nil)
	if _, err := c(Row{types.Num(1)}); err == nil {
		t.Error("unknown function call succeeded")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l", false}, // no % — length must match
		{"hello", "h__l_x", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestBindParams(t *testing.T) {
	schema := &Schema{}
	st, _ := sql.Parse("SELECT ? + :x FROM t")
	c, err := Compile(st.(*sql.Select).Items[0].Expr, schema, fakeEnv{}, []types.Value{types.Num(2), types.Num(3)})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c(nil)
	if v.Float() != 5 {
		t.Errorf("bind sum = %s", v)
	}
	// Out-of-range bind is a compile error.
	if _, err := Compile(st.(*sql.Select).Items[0].Expr, schema, fakeEnv{}, []types.Value{types.Num(1)}); err == nil {
		t.Error("missing bind accepted")
	}
}

func TestAncillaryExpr(t *testing.T) {
	env := fakeEnv{anc: map[int64]types.Value{1: types.Num(42)}}
	st, _ := sql.Parse("SELECT Score(1) FROM t")
	c, err := Compile(st.(*sql.Select).Items[0].Expr, &Schema{}, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c(nil)
	if v.Float() != 42 {
		t.Errorf("Score(1) = %s", v)
	}
	st, _ = sql.Parse("SELECT Score(9) FROM t")
	c, _ = Compile(st.(*sql.Select).Items[0].Expr, &Schema{}, env, nil)
	v, _ = c(nil)
	if !v.IsNull() {
		t.Errorf("Score(9) = %s, want NULL", v)
	}
}

// ---------------------------------------------------------------------------
// Iterators

func sliceIter(rows ...Row) Iterator { return &Slice{Rows: rows} }

func TestFilterProjectLimit(t *testing.T) {
	it := &Limit{
		N: 2,
		Child: &Project{
			Exprs: []Compiled{func(r Row) (types.Value, error) { return types.Num(r[0].Float() * 10), nil }},
			Child: &Filter{
				Pred:  func(r Row) (types.Value, error) { return types.Bool(r[0].Float() > 1), nil },
				Child: sliceIter(Row{types.Num(1)}, Row{types.Num(2)}, Row{types.Num(3)}, Row{types.Num(4)}),
			},
		},
	}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Float() != 20 || rows[1][0].Float() != 30 {
		t.Errorf("pipeline = %v", rows)
	}
}

func TestSortAndDistinct(t *testing.T) {
	it := &Sort{
		Keys: []SortKey{{Expr: func(r Row) (types.Value, error) { return r[0], nil }, Desc: true}},
		Child: &Distinct{Child: sliceIter(
			Row{types.Num(2)}, Row{types.Num(1)}, Row{types.Num(2)}, Row{types.Num(3)},
		)},
	}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].Float() != 3 || rows[2][0].Float() != 1 {
		t.Errorf("sorted distinct = %v", rows)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	outer := sliceIter(Row{types.Num(1)}, Row{types.Num(2)})
	join := &NestedLoopJoin{
		Outer: outer,
		Inner: func(o Row) (Iterator, error) {
			// Two inner rows per outer row, tagged with the outer value.
			v := o[0].Float()
			return sliceIter(Row{types.Num(v * 10)}, Row{types.Num(v * 100)}), nil
		},
	}
	rows, err := Drain(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(rows[0]) != 2 || rows[3][1].Float() != 200 {
		t.Errorf("join = %v", rows)
	}
}

func TestHashAggregate(t *testing.T) {
	rows := []Row{
		{types.Str("a"), types.Num(1)},
		{types.Str("a"), types.Num(3)},
		{types.Str("b"), types.Num(5)},
		{types.Str("b"), types.Null()}, // NULL ignored by aggregates
	}
	agg := &HashAggregate{
		Child:   sliceIter(rows...),
		GroupBy: []Compiled{func(r Row) (types.Value, error) { return r[0], nil }},
		Specs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggSum, Arg: func(r Row) (types.Value, error) { return r[1], nil }},
			{Kind: AggMin, Arg: func(r Row) (types.Value, error) { return r[1], nil }},
			{Kind: AggMax, Arg: func(r Row) (types.Value, error) { return r[1], nil }},
			{Kind: AggAvg, Arg: func(r Row) (types.Value, error) { return r[1], nil }},
		},
	}
	out, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %v", out)
	}
	a := out[0]
	if a[0].Text() != "a" || a[1].Int64() != 2 || a[2].Float() != 4 || a[3].Float() != 1 || a[4].Float() != 3 || a[5].Float() != 2 {
		t.Errorf("group a = %v", a)
	}
	b := out[1]
	if b[1].Int64() != 2 || b[2].Float() != 5 || b[5].Float() != 5 {
		t.Errorf("group b = %v", b)
	}
}

func TestHashAggregateEmptyGlobal(t *testing.T) {
	agg := &HashAggregate{
		Child: sliceIter(),
		Specs: []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: func(Row) (types.Value, error) { return types.Num(1), nil }}},
	}
	out, err := Drain(agg)
	if err != nil || len(out) != 1 {
		t.Fatalf("out = %v, %v", out, err)
	}
	if out[0][0].Int64() != 0 || !out[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", out[0])
	}
}

func TestRIDFetch(t *testing.T) {
	p := storage.NewPager(storage.NewMemBackend(), 32)
	h, _ := storage.CreateHeap(p)
	var rids []int64
	for i := 0; i < 5; i++ {
		rid, _ := h.Insert(types.EncodeRow(nil, []types.Value{types.Int(int64(i))}))
		rids = append(rids, rid.Int64())
	}
	it := &RIDFetch{Heap: h, Src: SliceRIDSource([]int64{rids[3], rids[1]})}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int64() != 3 || rows[1][0].Int64() != 1 {
		t.Errorf("rid fetch = %v", rows)
	}
	// RID pseudo-column appended.
	if rows[0][1].Int64() != rids[3] {
		t.Error("ROWID column missing")
	}
}

func TestSchemaResolve(t *testing.T) {
	s := &Schema{Cols: []SchemaCol{
		{Qualifier: "e", Name: "id"},
		{Qualifier: "d", Name: "id"},
		{Qualifier: "e", Name: "name"},
	}}
	if i, err := s.Resolve("d", "id"); err != nil || i != 1 {
		t.Errorf("qualified resolve = %d, %v", i, err)
	}
	if i, err := s.Resolve("", "name"); err != nil || i != 2 {
		t.Errorf("unqualified resolve = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "id"); err == nil {
		t.Error("ambiguous resolve succeeded")
	}
	if _, err := s.Resolve("x", "id"); err == nil {
		t.Error("bad qualifier resolve succeeded")
	}
	joined := Concat(s, &Schema{Cols: []SchemaCol{{Qualifier: "z", Name: "v"}}})
	if i, err := joined.Resolve("z", "v"); err != nil || i != 3 {
		t.Errorf("concat resolve = %d, %v", i, err)
	}
}

func TestTruthy(t *testing.T) {
	cases := map[string]bool{}
	_ = cases
	if Truthy(types.Null()) || Truthy(types.Num(0)) || Truthy(types.Bool(false)) || Truthy(types.Str("x")) {
		t.Error("false positives")
	}
	if !Truthy(types.Num(1)) || !Truthy(types.Num(-2)) || !Truthy(types.Bool(true)) {
		t.Error("false negatives")
	}
}

func TestDrainClosesOnce(t *testing.T) {
	// Close must be idempotent for all combinators over a Slice.
	its := []Iterator{
		&Filter{Child: sliceIter(), Pred: func(Row) (types.Value, error) { return types.Bool(true), nil }},
		&Project{Child: sliceIter()},
		&Limit{Child: sliceIter(), N: 1},
		&Sort{Child: sliceIter()},
		&Distinct{Child: sliceIter()},
	}
	for i, it := range its {
		if _, err := Drain(it); err != nil {
			t.Errorf("iterator %d drain: %v", i, err)
		}
		if err := it.Close(); err != nil {
			t.Errorf("iterator %d double close: %v", i, err)
		}
	}
}

func BenchmarkFilterPipeline(b *testing.B) {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{types.Num(float64(i))}
	}
	pred := func(r Row) (types.Value, error) { return types.Bool(int(r[0].Float())%2 == 0), nil }
	b.Run("chunk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := &Filter{Child: &Slice{Rows: rows}, Pred: pred}
			c := NewChunk(0)
			n := 0
			for {
				if err := it.NextBatch(c); err != nil {
					b.Fatal(err)
				}
				if c.Len() == 0 {
					break
				}
				n += c.Len()
			}
			if n != 500 {
				b.Fatal(fmt.Sprint("bad count ", n))
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := &RowAdapter{Child: &Filter{Child: &Slice{Rows: rows}, Pred: pred}}
			n := 0
			for {
				r, err := a.Next()
				if err != nil {
					b.Fatal(err)
				}
				if r == nil {
					break
				}
				n++
			}
			if n != 500 {
				b.Fatal(fmt.Sprint("bad count ", n))
			}
		}
	})
}

// BenchmarkRIDFetchPath sweeps the chunk size on the table-access
// stage, where the batch protocol pays off: chunk size 1 does one pager
// pin/unpin per row, larger chunks one page-sorted batched read each.
func BenchmarkRIDFetchPath(b *testing.B) {
	p := storage.NewPager(storage.NewMemBackend(), 512)
	h, err := storage.CreateHeap(p)
	if err != nil {
		b.Fatal(err)
	}
	const n = 8192
	rids := make([]int64, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert(types.EncodeRow(nil, []types.Value{types.Int(int64(i)), types.Str("payload")}))
		if err != nil {
			b.Fatal(err)
		}
		rids[i] = rid.Int64()
	}
	for _, batch := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("chunk-%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := &RIDFetch{Heap: h, Src: SliceRIDSource(rids)}
				c := NewChunk(batch)
				got := 0
				for {
					if err := it.NextBatch(c); err != nil {
						b.Fatal(err)
					}
					if c.Len() == 0 {
						break
					}
					got += c.Len()
				}
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
				if got != n {
					b.Fatal("bad count ", got)
				}
			}
		})
	}
}
