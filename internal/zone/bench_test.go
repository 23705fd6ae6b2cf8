package zone

import (
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/network"
)

type query struct {
	rt    *network.Runtime
	goal  expr.Expr
	bound float64
}

// benchQueries returns the modelgen single-clock seeds the benchmark and
// the allocation gate run: multi-segment runs (22, 29) and the widest
// segment closures among the low seeds (25, 46).
func benchQueries(tb testing.TB) []query {
	tb.Helper()
	var qs []query
	for _, seed := range []uint64{22, 25, 29, 46} {
		rt, goal, bound := singleClock(tb, seed)
		qs = append(qs, query{rt, goal, bound})
	}
	return qs
}

// analyzeAll runs one Analyze per query.
func analyzeAll(tb testing.TB, qs []query) {
	for _, q := range qs {
		if _, err := Analyze(q.rt, q.goal, q.bound, 0); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeSingleClock runs the analyzer over benchQueries, one
// Analyze per seed per op. No end-to-end workload reaches the analyzer, so
// this is its performance baseline.
func BenchmarkAnalyzeSingleClock(b *testing.B) {
	qs := benchQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeAll(b, qs)
	}
}

// TestAnalyzeAllocs gates the allocations of one pass over benchQueries.
// Each segment hands its closure to the CTMC solver in place and the
// solver keeps the uniformized chain in one flat array; the budget is the
// count from when the analyzer kept its own copy of the solver (2062, Go
// 1.24, linux/amd64), and the measured count is 1796.
func TestAnalyzeAllocs(t *testing.T) {
	qs := benchQueries(t)
	avg := testing.AllocsPerRun(5, func() { analyzeAll(t, qs) })
	const budget = 2062
	if avg > budget {
		t.Errorf("allocs per pass: %.0f, want at most %d", avg, budget)
	}
	t.Logf("allocs per pass: %.0f (budget %d)", avg, budget)
}
