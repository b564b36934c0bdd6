package extdb

// The benchmark harness: one testing.B sub-benchmark per entry of
// bench.Experiments (E1–E10, A1), each regenerating the corresponding
// table/claim of the paper's evaluation in quick mode. Run the full-size
// sweep with cmd/benchrunner.

import (
	"testing"

	"repro/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	cfg := bench.Config{Quick: true}
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			var t bench.Table
			for i := 0; i < b.N; i++ {
				t = e.Run(cfg)
			}
			b.StopTimer()
			if len(t.Rows) == 0 {
				b.Fatal("experiment produced no rows")
			}
			b.Log("\n" + t.Format())
		})
	}
}
