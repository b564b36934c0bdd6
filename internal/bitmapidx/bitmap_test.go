package bitmapidx

import (
	"testing"
	"testing/quick"
)

func TestAddRemoveContains(t *testing.T) {
	b := New()
	if b.Contains(42) {
		t.Error("empty bitmap contains 42")
	}
	if !b.Add(42) || b.Add(42) {
		t.Error("Add return values wrong")
	}
	if !b.Contains(42) || b.Count() != 1 {
		t.Error("42 not present after Add")
	}
	if !b.Remove(42) || b.Remove(42) {
		t.Error("Remove return values wrong")
	}
	if b.Contains(42) || b.Count() != 0 {
		t.Error("42 present after Remove")
	}
}

func TestSparseToDenseConversion(t *testing.T) {
	b := New()
	// Exceed the array threshold within a single container.
	for i := uint64(0); i < 5000; i++ {
		b.Add(i)
	}
	if b.Count() != 5000 {
		t.Fatalf("Count = %d", b.Count())
	}
	for i := uint64(0); i < 5000; i++ {
		if !b.Contains(i) {
			t.Fatalf("lost %d after densification", i)
		}
	}
	if b.Contains(5000) {
		t.Error("phantom member after densification")
	}
	// Ordered iteration across the conversion.
	want := uint64(0)
	b.Each(func(p uint64) bool {
		if p != want {
			t.Fatalf("Each out of order: got %d want %d", p, want)
		}
		want++
		return true
	})
}

func TestMultiContainer(t *testing.T) {
	b := New()
	positions := []uint64{0, 1, 65535, 65536, 1 << 20, 1 << 40, 1<<40 + 1}
	for _, p := range positions {
		b.Add(p)
	}
	got := b.Slice()
	if len(got) != len(positions) {
		t.Fatalf("Slice len = %d", len(got))
	}
	for i, p := range positions {
		if got[i] != p {
			t.Errorf("Slice[%d] = %d, want %d", i, got[i], p)
		}
	}
}

func TestSetOperations(t *testing.T) {
	a, b := New(), New()
	for i := uint64(0); i < 100; i++ {
		a.Add(i)
	}
	for i := uint64(50); i < 150; i++ {
		b.Add(i)
	}
	if n := And(a, b).Count(); n != 50 {
		t.Errorf("And count = %d, want 50", n)
	}
	if n := Or(a, b).Count(); n != 150 {
		t.Errorf("Or count = %d, want 150", n)
	}
	if n := AndNot(a, b).Count(); n != 50 {
		t.Errorf("AndNot count = %d, want 50", n)
	}
	diff := AndNot(a, b)
	diff.Each(func(p uint64) bool {
		if p >= 50 {
			t.Errorf("AndNot contains %d", p)
		}
		return true
	})
}

func TestQuickModelAgreement(t *testing.T) {
	prop := func(ops []uint32) bool {
		b := New()
		model := map[uint64]bool{}
		for _, op := range ops {
			pos := uint64(op >> 2)
			switch op & 3 {
			case 0, 1:
				b.Add(pos)
				model[pos] = true
			case 2:
				b.Remove(pos)
				delete(model, pos)
			case 3:
				if b.Contains(pos) != model[pos] {
					return false
				}
			}
		}
		if b.Count() != len(model) {
			return false
		}
		ok := true
		b.Each(func(p uint64) bool {
			if !model[p] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIndexLifecycle(t *testing.T) {
	x := NewIndex()
	x.Insert([]byte("red"), 1)
	x.Insert([]byte("red"), 2)
	x.Insert([]byte("blue"), 3)
	if x.Cardinality() != 2 {
		t.Errorf("Cardinality = %d", x.Cardinality())
	}
	if bm := x.Lookup([]byte("red")); bm == nil || bm.Count() != 2 {
		t.Error("red bitmap wrong")
	}
	if x.Lookup([]byte("green")) != nil {
		t.Error("phantom value")
	}
	x.Delete([]byte("red"), 1)
	x.Delete([]byte("red"), 2)
	if x.Cardinality() != 1 {
		t.Error("empty value bitmap not pruned")
	}
	// Deleting from a missing value must be a no-op.
	x.Delete([]byte("green"), 9)
}

func BenchmarkBitmapAdd(b *testing.B) {
	bm := New()
	for i := 0; i < b.N; i++ {
		bm.Add(uint64(i))
	}
}

func BenchmarkBitmapAnd(b *testing.B) {
	x, y := New(), New()
	for i := uint64(0); i < 100000; i++ {
		if i%2 == 0 {
			x.Add(i)
		}
		if i%3 == 0 {
			y.Add(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		And(x, y)
	}
}
