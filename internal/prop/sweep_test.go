package prop

import (
	"math"
	"math/rand"
	"testing"

	"slimsim/internal/expr"
)

func sweepOf(t *testing.T, kind Kind, bounds ...float64) *Sweep {
	t.Helper()
	s, err := NewSweep(Property{Kind: kind, Bound: bounds[len(bounds)-1], Goal: expr.True()}, bounds)
	if err != nil {
		t.Fatalf("NewSweep(%v, %v): %v", kind, bounds, err)
	}
	return s
}

func TestNewSweepValidation(t *testing.T) {
	p := Property{Kind: Reachability, Goal: expr.True()}
	bad := [][]float64{
		nil,
		{},
		{math.NaN()},
		{math.Inf(-1)},
		{-1},
		{1, math.Inf(1), math.Inf(1)},
		{1, 1},
		{2, 1},
		{0, 1, 1.5, 1.5},
	}
	for _, bs := range bad {
		if _, err := NewSweep(p, bs); err == nil {
			t.Errorf("NewSweep(%v) = nil error, want rejection", bs)
		}
	}
	if _, err := NewSweep(Property{Kind: Kind(99), Goal: expr.True()}, []float64{1}); err == nil {
		t.Errorf("NewSweep with invalid kind accepted")
	}
	// The same range rule as Property.Validate: +Inf is a valid bound.
	for _, bs := range [][]float64{{0, 0.5, 1, 3600}, {0}, {math.Inf(1)}, {1, math.Inf(1)}} {
		if _, err := NewSweep(p, bs); err != nil {
			t.Errorf("NewSweep(%v) = %v, want nil", bs, err)
		}
	}
}

func TestSweepAccessors(t *testing.T) {
	in := []float64{1, 2, 3}
	s, err := NewSweep(Property{Kind: Until, Goal: expr.True()}, in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != Until {
		t.Errorf("Kind() = %v, want until", s.Kind())
	}
	if s.Cells() != 3 {
		t.Errorf("Cells() = %d, want 3", s.Cells())
	}
	if s.Horizon() != 3 {
		t.Errorf("Horizon() = %g, want 3", s.Horizon())
	}
	// The sweep must own its bounds: mutating the input slice after
	// construction must not change the sweep.
	in[0] = 99
	if s.Bounds()[0] != 1 {
		t.Errorf("Bounds()[0] = %g after caller mutation, want 1", s.Bounds()[0])
	}
}

func TestSweepOutcomesReachAndUntil(t *testing.T) {
	for _, kind := range []Kind{Reachability, Until} {
		s := sweepOf(t, kind, 1, 2, 3)
		out := make([]bool, 3)

		s.Outcomes(true, 2.5, out)
		want := []bool{false, false, true}
		if !eqBools(out, want) {
			t.Errorf("%v sat@2.5: got %v, want %v", kind, out, want)
		}

		// The bound is inclusive: a hit exactly at u counts.
		s.Outcomes(true, 1, out)
		want = []bool{true, true, true}
		if !eqBools(out, want) {
			t.Errorf("%v sat@1: got %v, want %v", kind, out, want)
		}

		// A violated path never hits within the horizon, whatever the
		// reported decision time.
		s.Outcomes(false, 0.5, out)
		want = []bool{false, false, false}
		if !eqBools(out, want) {
			t.Errorf("%v viol@0.5: got %v, want %v", kind, out, want)
		}
	}
}

func TestSweepOutcomesInvariance(t *testing.T) {
	s := sweepOf(t, Invariance, 1, 2, 3)
	out := make([]bool, 3)

	// First failure at 2.5: bounds strictly below it still hold.
	s.Outcomes(false, 2.5, out)
	want := []bool{true, true, false}
	if !eqBools(out, want) {
		t.Errorf("inv viol@2.5: got %v, want %v", out, want)
	}

	// Failure exactly at u violates □[0,u] (the bound is inclusive).
	s.Outcomes(false, 2, out)
	want = []bool{true, false, false}
	if !eqBools(out, want) {
		t.Errorf("inv viol@2: got %v, want %v", out, want)
	}

	// A satisfied path held the goal through the horizon: all cells hold.
	s.Outcomes(true, 3, out)
	want = []bool{true, true, true}
	if !eqBools(out, want) {
		t.Errorf("inv sat: got %v, want %v", out, want)
	}
}

// TestSweepOutcomesMonotone is the randomized once-hit-stays-hit property:
// for any decision the per-bound verdict vector is monotone in u —
// non-decreasing for reachability/until, non-increasing for invariance.
func TestSweepOutcomesMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, kind := range []Kind{Reachability, Invariance, Until} {
		for trial := 0; trial < 500; trial++ {
			n := 1 + r.Intn(8)
			bounds := make([]float64, n)
			u := 0.0
			for i := range bounds {
				u += 0.01 + 10*r.Float64()
				bounds[i] = u
			}
			s := sweepOf(t, kind, bounds...)
			sat := r.Intn(2) == 0
			at := r.Float64() * (u + 1)
			out := make([]bool, n)
			s.Outcomes(sat, at, out)
			for i := 1; i < n; i++ {
				increasing := !out[i-1] || out[i] // once hit, stays hit
				decreasing := out[i-1] || !out[i] // once failed, stays failed
				if kind == Invariance && !decreasing {
					t.Fatalf("inv outcome not anti-monotone: sat=%v at=%g bounds=%v out=%v",
						sat, at, bounds, out)
				}
				if kind != Invariance && !increasing {
					t.Fatalf("%v outcome not monotone: sat=%v at=%g bounds=%v out=%v",
						kind, sat, at, bounds, out)
				}
			}
			// The horizon cell must reproduce the path verdict itself:
			// the engine decided the horizon-bounded property.
			if kind != Invariance && at <= u && out[n-1] != sat {
				t.Fatalf("%v horizon cell %v, want path verdict %v (at=%g ≤ horizon %g)",
					kind, out[n-1], sat, at, u)
			}
		}
	}
}

// TestSweepOutcomesShortBuffer pins that a short output buffer only fills
// its own length instead of panicking.
func TestSweepOutcomesShortBuffer(t *testing.T) {
	s := sweepOf(t, Reachability, 1, 2, 3)
	out := make([]bool, 2)
	s.Outcomes(true, 0.5, out)
	if !out[0] || !out[1] {
		t.Errorf("short buffer: got %v, want [true true]", out)
	}
}

func eqBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
