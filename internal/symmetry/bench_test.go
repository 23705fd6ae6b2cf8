package symmetry_test

import (
	"testing"

	"slimsim/internal/symmetry"
)

// BenchmarkBuildQuotient is the counter-abstracted Table I build at N=8:
// detection runs once, the timed loop is BuildQuotient alone.
func BenchmarkBuildQuotient(b *testing.B) {
	rt, goal := sensorFilter(b, 8)
	red := symmetry.Detect(rt)
	if red == nil {
		b.Fatal("no symmetry detected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := symmetry.BuildQuotient(rt, red, goal, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildQuotientAllocs gates the allocation profile of a quotient build
// on the sensor filter at N=6. The build runs on the CTMC builder's
// scratch, so what is left per state is its compact key, its resolved
// distribution and the move-cache entry of a new location vector; the
// budget has ~30% headroom over the measured count (≈2.7k).
func TestBuildQuotientAllocs(t *testing.T) {
	rt, goal := sensorFilter(t, 6)
	red := symmetry.Detect(rt)
	if red == nil {
		t.Fatal("no symmetry detected")
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := symmetry.BuildQuotient(rt, red, goal, 0); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 3600
	if avg > budget {
		t.Errorf("allocs per BuildQuotient: %.0f, want at most %d", avg, budget)
	}
	t.Logf("allocs per BuildQuotient: %.0f (budget %d)", avg, budget)
}
