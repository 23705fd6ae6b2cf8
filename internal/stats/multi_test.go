package stats

import (
	"math/rand"
	"testing"
)

func TestNewMultiEstimatorValidation(t *testing.T) {
	ok := Params{Delta: 0.1, Epsilon: 0.1}
	if _, err := NewMultiEstimator(MethodChernoff, ok, 0); err == nil {
		t.Errorf("cells=0 accepted")
	}
	if _, err := NewMultiEstimator(MethodChernoff, Params{Delta: 2, Epsilon: 0.1}, 3); err == nil {
		t.Errorf("bad delta accepted")
	}
	if _, err := NewMultiEstimator(Method(99), ok, 3); err == nil {
		t.Errorf("bad method accepted")
	}
	me, err := NewMultiEstimator(MethodChernoff, ok, 3)
	if err != nil {
		t.Fatal(err)
	}
	if me.Cells() != 3 {
		t.Errorf("Cells() = %d, want 3", me.Cells())
	}
}

func TestMultiEstimatorAddLengthMismatch(t *testing.T) {
	me, err := NewMultiEstimator(MethodChernoff, Params{Delta: 0.1, Epsilon: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Add([]bool{true, false}); err == nil {
		t.Errorf("short vector accepted")
	}
	if err := me.Add(make([]bool, 4)); err == nil {
		t.Errorf("long vector accepted")
	}
}

// TestMultiEstimatorChernoffShared pins the fixed-N case: every cell
// shares the Chernoff bound, so the sweep is done after exactly N shared
// paths and each cell consumed all of them.
func TestMultiEstimatorChernoffShared(t *testing.T) {
	p := Params{Delta: 0.1, Epsilon: 0.1}
	me, err := NewMultiEstimator(MethodChernoff, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ChernoffBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if me.Planned() != n {
		t.Errorf("Planned() = %d, want Chernoff bound %d", me.Planned(), n)
	}
	vec := []bool{true, false, true}
	for i := 0; i < n; i++ {
		if me.Done() {
			t.Fatalf("done after %d paths, want %d", i, n)
		}
		if err := me.Add(vec); err != nil {
			t.Fatal(err)
		}
	}
	if !me.Done() {
		t.Fatalf("not done after %d paths", n)
	}
	if me.Paths() != n {
		t.Errorf("Paths() = %d, want %d", me.Paths(), n)
	}
	for i, est := range me.Estimates() {
		if est.Trials != n {
			t.Errorf("cell %d trials = %d, want %d", i, est.Trials, n)
		}
		want := 0.0
		if vec[i] {
			want = 1.0
		}
		if est.Mean() != want {
			t.Errorf("cell %d mean = %g, want %g", i, est.Mean(), want)
		}
	}
}

// TestMultiEstimatorFreeze pins the per-cell stopping schedule with a
// sequential method: a degenerate cell converges (and freezes) long
// before a maximum-variance cell, and outcomes arriving after the freeze
// do not leak into the frozen estimate.
func TestMultiEstimatorFreeze(t *testing.T) {
	me, err := NewMultiEstimator(MethodChowRobbins, Params{Delta: 0.05, Epsilon: 0.05}, 2)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]bool, 2)
	flip := false
	var frozenAt int
	for !me.Done() {
		// Cell 0 always succeeds (variance → 0, stops at minN); cell 1
		// alternates (variance → 1/4, needs z²(1/4+1/n)/ε² ≈ 400 paths).
		vec[0] = true
		vec[1] = flip
		flip = !flip
		if err := me.Add(vec); err != nil {
			t.Fatal(err)
		}
		if frozenAt == 0 && me.Estimate(0).Trials < me.Paths() {
			frozenAt = me.Estimate(0).Trials
		}
		if me.Paths() > 100_000 {
			t.Fatal("sweep did not converge")
		}
	}
	e0, e1 := me.Estimate(0), me.Estimate(1)
	if frozenAt == 0 || e0.Trials != frozenAt {
		t.Errorf("cell 0 trials = %d, want frozen at its own stopping time %d", e0.Trials, frozenAt)
	}
	if e0.Mean() != 1 {
		t.Errorf("cell 0 mean = %g, want 1", e0.Mean())
	}
	if e1.Trials <= e0.Trials {
		t.Errorf("high-variance cell stopped at %d ≤ degenerate cell's %d", e1.Trials, e0.Trials)
	}
	if e1.Trials != me.Paths() {
		t.Errorf("last cell trials = %d, want every shared path %d", e1.Trials, me.Paths())
	}
	if me.Planned() != 0 {
		t.Errorf("Planned() = %d for sequential method, want 0", me.Planned())
	}
}

// TestMultiEstimatorMatchesStandalone is the stats-layer half of the
// sweep/single-bound agreement guarantee: a cell fed some outcome stream
// freezes at exactly the estimate a standalone generator of the same
// method produces from the same stream.
func TestMultiEstimatorMatchesStandalone(t *testing.T) {
	p := Params{Delta: 0.05, Epsilon: 0.05, RelErr: 0.2}
	for _, m := range []Method{MethodChernoff, MethodGauss, MethodChowRobbins, MethodRelative} {
		me, err := NewMultiEstimator(m, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := NewGenerator(m, p)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		vec := make([]bool, 2)
		soloDone := false
		for !me.Done() {
			vec[0] = r.Float64() < 0.3
			vec[1] = r.Float64() < 0.9
			if !soloDone {
				solo.Add(vec[0])
				soloDone = solo.Done()
			}
			if err := me.Add(vec); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := me.Estimate(0), solo.Estimate(); got != want {
			t.Errorf("%v: cell estimate %+v, standalone %+v", m, got, want)
		}
	}
}
