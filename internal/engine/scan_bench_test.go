package engine

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/types"
)

// BenchmarkFullScan runs the three query shapes of a larger-than-cache
// analytic mix over 60,000 rows of about 100 bytes (a 60-byte pad
// column no query reads) with a 128-page buffer pool, so the table is
// about six times the pool: a filtered full-scan aggregate, a GROUP BY
// over 16 groups, and a 500-key B-tree range scan. Allocations and
// buffer-pool misses per query are reported; run it with
//
//	go test -run '^$' -bench BenchmarkFullScan ./internal/engine
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
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			mustExec(b, s, `BEGIN`)
		}
		mustExec(b, s, `INSERT INTO orders VALUES (?, ?, ?, ?)`, types.Int(int64(i)),
			types.Int(int64(rng.Intn(groups))), types.Int(rng.Int63n(10000)), pad)
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

	cases := []struct {
		name, sql string
		args      func() []types.Value
		want      int
	}{
		{"aggregate", `SELECT COUNT(*), SUM(amount) FROM orders WHERE amount > ?`,
			func() []types.Value { return []types.Value{types.Int(1000 + rng.Int63n(8000))} }, 1},
		{"groupby", `SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region`,
			func() []types.Value { return nil }, groups},
		{"range", `SELECT id, amount FROM orders WHERE id BETWEEN ? AND ?`,
			func() []types.Value {
				lo := rng.Int63n(rows - 500)
				return []types.Value{types.Int(lo), types.Int(lo + 499)}
			}, 500},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			before := db.PagerStats()
			for i := 0; i < b.N; i++ {
				rs := mustQuery(b, s, tc.sql, tc.args()...)
				if len(rs.Rows) != tc.want {
					b.Fatalf("%s: %d rows, want %d", tc.sql, len(rs.Rows), tc.want)
				}
			}
			b.ReportMetric(float64(db.PagerStats().Misses-before.Misses)/float64(b.N), "misses/op")
		})
	}
}
