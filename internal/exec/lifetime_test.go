package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/extidx"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// rebatch pulls its child n rows at a time and hands each batch on
// within the call, as Filter does, so a consumer above it keeps rows of
// a producer running at chunk size n.
type rebatch struct {
	Child Iterator
	n     int
	buf   *Chunk
}

func (r *rebatch) NextBatch(c *Chunk) error {
	c.Reset()
	if r.buf == nil {
		r.buf = NewChunk(r.n)
	}
	if err := r.Child.NextBatch(r.buf); err != nil {
		return err
	}
	for i := range r.buf.Rows {
		c.CopyRowFrom(r.buf, i)
	}
	return nil
}

func (r *rebatch) Close() error { return r.Child.Close() }

// drainTruncating is Drain by a consumer that reuses its chunk: after
// copying each batch out it truncates the chunk, or resets it on
// alternate calls. An operator that kept the caller's chunk to read it
// at a later call finds it emptied.
func drainTruncating(it Iterator) ([]Row, error) {
	defer it.Close()
	c := NewChunk(0)
	var out []Row
	for i := 0; ; i++ {
		if err := it.NextBatch(c); err != nil {
			return nil, err
		}
		if c.Len() == 0 {
			return out, nil
		}
		out = keepRows(out, c.Rows)
		if i%2 == 0 {
			c.Truncate(0)
		} else {
			c.Reset()
		}
	}
}

// share is the part-th of parts contiguous shares of s.
func share[T any](s []T, part, parts int) []T {
	return s[len(s)*part/parts : len(s)*(part+1)/parts]
}

// heapRows reads every row of h, with its ROWID appended, in page order.
func heapRows(t *testing.T, h *storage.Heap) (rids []int64, rows []Row) {
	t.Helper()
	if err := h.Scan(func(rid storage.RID, img []byte) (bool, error) {
		row, _, err := types.DecodeRow(img)
		rids = append(rids, rid.Int64())
		rows = append(rows, append(row, types.Int(rid.Int64())))
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
	return rids, rows
}

// TestRowsValidUntilNextBatch: producers that build rows recycle their
// storage once their next NextBatch runs, so every consumer that keeps
// rows longer must copy them. Each producer runs at chunk sizes 1, 3
// and 256, over pages holding more rows than a chunk and over pages a
// chunk spans several of, under Drain, Sort and a degree-2 Exchange,
// and what each consumer kept is compared with an oracle after the
// producer is exhausted. The invariants build poisons a recycled slab,
// so a row kept without a copy reads garbage there even where a later
// page's decode would happen to leave it intact. The operators that
// hand their caller's chunk to their child, Instrument and Limit, also
// run under a consumer that truncates or resets its chunk between
// calls: their counts must follow the rows delivered, not what the
// chunk holds later.
func TestRowsValidUntilNextBatch(t *testing.T) {
	const n = 1500
	bigPages, _ := propertyHeap(t, n)
	if perPage := n / int(bigPages.NumPages()); perPage <= DefaultChunkSize {
		t.Fatalf("%d rows a page; the test needs pages holding more rows than a chunk", perPage)
	}
	heaps := []struct {
		name string
		h    *storage.Heap
	}{
		{"pages larger than a chunk", bigPages},
		{"chunks spanning pages", paddedHeap(t, n)},
	}
	for _, hp := range heaps {
		checkRowLifetimes(t, hp.name, hp.h)
	}
}

func checkRowLifetimes(t *testing.T, heapName string, h *storage.Heap) {
	rids, inPageOrder := heapRows(t, h)
	n := len(rids)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	shuffled := make([]int64, n)
	inShuffledOrder := make([]Row, n)
	for i, j := range perm {
		shuffled[i] = rids[j]
		inShuffledOrder[i] = inPageOrder[j]
	}
	projected := make([]Row, n)
	for i, r := range inPageOrder {
		projected[i] = Row{types.Int(r[0].Int64() * 10), r[len(r)-1]}
	}
	selfJoined := make([]Row, n)
	for i, r := range inPageOrder {
		selfJoined[i] = append(slices.Clone(r), r...)
	}
	domainScan := func(rids []int64) Iterator {
		var batches []extidx.FetchResult
		for len(rids) > 100 {
			batches = append(batches, extidx.FetchResult{RIDs: rids[:100]})
			rids = rids[100:]
		}
		batches = append(batches, extidx.FetchResult{RIDs: rids, Done: true})
		return &DomainScan{Methods: &scriptedMethods{batches: batches}, Heap: h}
	}
	producers := []struct {
		name string
		make func(part, parts int) Iterator
		want []Row // the producer's output, in its order
	}{
		{"HeapScan", func(part, parts int) Iterator {
			return NewHeapScan(h, share(h.PageList(), part, parts))
		}, inPageOrder},
		{"RIDFetch", func(part, parts int) Iterator {
			return &RIDFetch{Heap: h, Src: SliceRIDSource(share(shuffled, part, parts))}
		}, inShuffledOrder},
		{"DomainScan", func(part, parts int) Iterator {
			return domainScan(share(shuffled, part, parts))
		}, inShuffledOrder},
		{"Project", func(part, parts int) Iterator {
			return &Project{Child: NewHeapScan(h, share(h.PageList(), part, parts)), Exprs: []Compiled{
				func(r Row) (types.Value, error) { return types.Int(r[0].Int64() * 10), nil },
				func(r Row) (types.Value, error) { return r[len(r)-1], nil },
			}}
		}, projected},
		{"NestedLoopJoin", func(part, parts int) Iterator {
			// Each outer row joins itself, fetched by its ROWID, so both
			// sides are producers that recycle their rows.
			return &NestedLoopJoin{
				Outer: NewHeapScan(h, share(h.PageList(), part, parts)),
				Inner: func(outer Row) (Iterator, error) {
					rid := outer[len(outer)-1].Int64()
					return &RIDFetch{Heap: h, Src: SliceRIDSource([]int64{rid})}, nil
				},
			}
		}, selfJoined},
	}
	for _, p := range producers {
		descending := slices.Clone(p.want)
		slices.SortFunc(descending, func(a, b Row) int { return int(b[0].Int64() - a[0].Int64()) })
		for _, batch := range []int{1, 3, DefaultChunkSize} {
			check := func(consumer string, got, want []Row, anyOrder bool) {
				t.Helper()
				g, w := encodeRows(got), encodeRows(want)
				if anyOrder {
					g, w = sortedEncoded(got), sortedEncoded(want)
				}
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("%s, %s at chunk size %d under %s: kept rows differ from the oracle (%d rows, want %d)",
						heapName, p.name, batch, consumer, len(got), len(want))
				}
			}
			rows, err := Drain(&rebatch{Child: p.make(0, 1), n: batch})
			if err != nil {
				t.Fatal(err)
			}
			check("Drain", rows, p.want, false)

			node := &obs.OpNode{}
			rows, err = drainTruncating(&Instrument{Child: &rebatch{Child: p.make(0, 1), n: batch}, Node: node})
			if err != nil {
				t.Fatal(err)
			}
			check("Instrument under a truncating consumer", rows, p.want, false)
			if node.Rows != int64(len(rows)) {
				t.Errorf("%s, %s at chunk size %d: Instrument counted %d rows, delivered %d",
					heapName, p.name, batch, node.Rows, len(rows))
			}

			limit := len(p.want) - 1
			rows, err = drainTruncating(&Limit{Child: &rebatch{Child: p.make(0, 1), n: batch}, N: limit})
			if err != nil {
				t.Fatal(err)
			}
			check("Limit under a truncating consumer", rows, p.want[:limit], false)

			rows, err = Drain(&Sort{Child: &rebatch{Child: p.make(0, 1), n: batch}, Keys: []SortKey{{
				Expr: func(r Row) (types.Value, error) { return r[0], nil },
				Desc: true,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			check("Sort", rows, descending, false)

			rows, err = Drain(&Exchange{Morsels: []Iterator{p.make(0, 2), p.make(1, 2)}, Workers: 2, BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			check("a degree-2 Exchange", rows, p.want, true)
		}
	}
}
