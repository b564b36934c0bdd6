package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

// BenchmarkFullScan runs the three query shapes of a larger-than-cache
// analytic mix over 60,000 rows of about 100 bytes (a 60-byte pad
// column no query reads) with a 128-page buffer pool, so the table is
// about six times the pool: a filtered full-scan aggregate, a GROUP BY
// over 16 groups, and a 500-key B-tree range scan. Every result is
// checked against sums kept while loading. Allocations, garbage
// collections and buffer-pool misses per query are reported; run it
// with
//
//	go test -run '^$' -bench BenchmarkFullScan -benchmem ./internal/engine
func BenchmarkFullScan(b *testing.B) {
	const rows, groups = 60000, 16
	path := filepath.Join(b.TempDir(), "scan.db")
	db, err := Open(Options{Path: path})
	if err != nil {
		b.Fatal(err)
	}
	s := db.NewSession()
	mustExec(b, s, `CREATE TABLE orders(id NUMBER, region NUMBER, amount NUMBER, pad VARCHAR2)`)
	rng := rand.New(rand.NewSource(1))
	pad := types.Str(strings.Repeat("x", 60))
	amounts := make([]int64, rows) // by id
	var regionCount, regionSum [groups]int64
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			mustExec(b, s, `BEGIN`)
		}
		region, amount := rng.Intn(groups), rng.Int63n(10000)
		amounts[i] = amount
		regionCount[region]++
		regionSum[region] += amount
		mustExec(b, s, `INSERT INTO orders VALUES (?, ?, ?, ?)`, types.Int(int64(i)),
			types.Int(int64(region)), types.Int(amount), pad)
		if i%500 == 499 {
			mustExec(b, s, `COMMIT`)
		}
	}
	mustExec(b, s, `CREATE INDEX orders_id ON orders(id)`)
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	// Reopened, the pool starts empty and holds 128 pages: a full scan
	// misses on nearly every page, as in a larger-than-cache table.
	if db, err = Open(Options{Path: path, CacheSizePages: 128}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	s = db.NewSession()

	// above[i] sums the amounts sorted[i:], so the rows over a threshold
	// are counted and summed by one binary search.
	sorted := slices.Clone(amounts)
	slices.Sort(sorted)
	above := make([]int64, rows+1)
	for i := rows - 1; i >= 0; i-- {
		above[i] = above[i+1] + sorted[i]
	}

	cases := []struct {
		name, sql string
		args      func() []types.Value
		check     func(args []types.Value, got [][]types.Value) error
	}{
		{"aggregate", `SELECT COUNT(*), SUM(amount) FROM orders WHERE amount > ?`,
			func() []types.Value { return []types.Value{types.Int(1000 + rng.Int63n(8000))} },
			func(args []types.Value, got [][]types.Value) error {
				i := sort.Search(rows, func(i int) bool { return sorted[i] > args[0].Int64() })
				if len(got) != 1 || got[0][0].Int64() != int64(rows-i) || got[0][1].Int64() != above[i] {
					return fmt.Errorf("got %v, want COUNT %d, SUM %d", got, rows-i, above[i])
				}
				return nil
			}},
		{"groupby", `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`,
			func() []types.Value { return nil },
			func(_ []types.Value, got [][]types.Value) error {
				if len(got) != groups {
					return fmt.Errorf("%d groups, want %d", len(got), groups)
				}
				for _, r := range got {
					g := r[0].Int64()
					if g < 0 || g >= groups || r[1].Int64() != regionCount[g] || r[2].Int64() != regionSum[g] {
						return fmt.Errorf("group %v, want COUNT %d, SUM %d", r, regionCount[g%groups], regionSum[g%groups])
					}
				}
				return nil
			}},
		{"range", `SELECT id, amount FROM orders WHERE id BETWEEN ? AND ?`,
			func() []types.Value {
				lo := rng.Int63n(rows - 500)
				return []types.Value{types.Int(lo), types.Int(lo + 499)}
			},
			func(args []types.Value, got [][]types.Value) error {
				lo := args[0].Int64()
				seen := make(map[int64]bool, len(got))
				for _, r := range got {
					id := r[0].Int64()
					if id < lo || id > lo+499 || seen[id] || r[1].Int64() != amounts[id] {
						return fmt.Errorf("row %v out of range [%d, %d], repeated, or with the wrong amount", r, lo, lo+499)
					}
					seen[id] = true
				}
				if len(got) != 500 {
					return fmt.Errorf("%d rows, want 500", len(got))
				}
				return nil
			}},
	}
	gcCycles := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			before := db.PagerStats()
			metrics.Read(gcCycles)
			gcBefore := gcCycles[0].Value.Uint64()
			for i := 0; i < b.N; i++ {
				args := tc.args()
				rs := mustQuery(b, s, tc.sql, args...)
				if err := tc.check(args, rs.Rows); err != nil {
					b.Fatalf("%s %v: %v", tc.sql, args, err)
				}
			}
			metrics.Read(gcCycles)
			b.ReportMetric(float64(gcCycles[0].Value.Uint64()-gcBefore)/float64(b.N), "gc-cycles/op")
			b.ReportMetric(float64(db.PagerStats().Misses-before.Misses)/float64(b.N), "misses/op")
		})
	}
}
