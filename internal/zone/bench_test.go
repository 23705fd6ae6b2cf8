package zone

import (
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/network"
)

// BenchmarkAnalyzeSingleClock runs the analyzer over a fixed set of
// modelgen single-clock seeds, one Analyze per seed per op: multi-segment
// runs (22, 29) and the widest segment closures among the low seeds
// (25, 46). No end-to-end workload reaches the analyzer, so this is its
// performance baseline.
func BenchmarkAnalyzeSingleClock(b *testing.B) {
	type query struct {
		rt    *network.Runtime
		goal  expr.Expr
		bound float64
	}
	var qs []query
	for _, seed := range []uint64{22, 25, 29, 46} {
		rt, goal, bound := singleClock(b, seed)
		qs = append(qs, query{rt, goal, bound})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := Analyze(q.rt, q.goal, q.bound, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}
