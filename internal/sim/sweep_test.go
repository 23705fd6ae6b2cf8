package sim

import (
	"math"
	"reflect"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/sta"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
)

func sweepCfg(s strategy.Strategy, p prop.Property, eps float64, workers int) AnalysisConfig {
	return AnalysisConfig{
		Config:  Config{Strategy: s, Property: p},
		Params:  stats.Params{Delta: 0.05, Epsilon: eps},
		Seed:    42,
		Workers: workers,
	}
}

func TestAnalyzeSweepValidation(t *testing.T) {
	rt := markovNet(t, 0.1)
	p := prop.Reach(10, failedRef())
	for _, bounds := range [][]float64{nil, {}, {5, 5}, {10, 5}, {-1, 5}, {math.NaN()}} {
		if _, err := AnalyzeSweep(rt, sweepCfg(strategy.ASAP{}, p, 0.05, 1), bounds); err == nil {
			t.Errorf("AnalyzeSweep(%v) accepted, want rejection", bounds)
		}
	}
}

// TestAnalyzeSweepMatchesClosedFormCDF checks the whole probability-vs-
// bound curve from one shared stream against the closed-form exponential
// CDF 1−e^{−λu}, and that the estimates are monotone in u.
func TestAnalyzeSweepMatchesClosedFormCDF(t *testing.T) {
	const lambda = 0.1
	rt := markovNet(t, lambda)
	bounds := []float64{2, 5, 10, 20}
	rep, err := AnalyzeSweep(rt, sweepCfg(strategy.ASAP{}, prop.Reach(0, failedRef()), 0.02, 1), bounds)
	if err != nil {
		t.Fatalf("AnalyzeSweep: %v", err)
	}
	if len(rep.Cells) != len(bounds) {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), len(bounds))
	}
	for i, c := range rep.Cells {
		want := 1 - math.Exp(-lambda*bounds[i])
		if math.Abs(c.Probability-want) > 0.03 {
			t.Errorf("cell u=%g: P = %v, want %v ± 0.03", bounds[i], c.Probability, want)
		}
		if i > 0 && c.Probability < rep.Cells[i-1].Probability {
			t.Errorf("estimates not monotone: P(u=%g)=%v < P(u=%g)=%v",
				bounds[i], c.Probability, bounds[i-1], rep.Cells[i-1].Probability)
		}
	}
	if rep.Paths != rep.Cells[len(rep.Cells)-1].Paths {
		t.Errorf("shared paths %d != slowest cell's %d (Chernoff cells all share one N)",
			rep.Paths, rep.Cells[len(rep.Cells)-1].Paths)
	}
}

// TestAnalyzeSweepInvarianceCDF checks the anti-monotone pattern:
// P(□[0,u] ¬failed) = e^{−λu} decreases in u.
func TestAnalyzeSweepInvarianceCDF(t *testing.T) {
	const lambda = 0.1
	rt := markovNet(t, lambda)
	bounds := []float64{2, 5, 10}
	notFailed := expr.Not(failedRef())
	rep, err := AnalyzeSweep(rt, sweepCfg(strategy.ASAP{}, prop.Always(0, notFailed), 0.02, 1), bounds)
	if err != nil {
		t.Fatalf("AnalyzeSweep: %v", err)
	}
	for i, c := range rep.Cells {
		want := math.Exp(-lambda * bounds[i])
		if math.Abs(c.Probability-want) > 0.03 {
			t.Errorf("cell u=%g: P = %v, want %v ± 0.03", bounds[i], c.Probability, want)
		}
		if i > 0 && c.Probability > rep.Cells[i-1].Probability {
			t.Errorf("invariance estimates not anti-monotone at u=%g", bounds[i])
		}
	}
}

// TestAnalyzeSweepHorizonMatchesAnalyze pins the bit-identity guarantee:
// with the same seed, strategy, accuracy and worker count, the sweep's
// horizon cell equals a single-bound Analyze run exactly — same paths,
// same consumption order, same estimator state.
func TestAnalyzeSweepHorizonMatchesAnalyze(t *testing.T) {
	rt := markovNet(t, 0.1)
	bounds := []float64{3, 7, 15}
	for _, workers := range []int{1, 3} {
		sweep, err := AnalyzeSweep(rt, sweepCfg(strategy.ASAP{}, prop.Reach(0, failedRef()), 0.05, workers), bounds)
		if err != nil {
			t.Fatalf("AnalyzeSweep(workers=%d): %v", workers, err)
		}
		single, err := Analyze(rt, sweepCfg(strategy.ASAP{}, prop.Reach(15, failedRef()), 0.05, workers))
		if err != nil {
			t.Fatalf("Analyze(workers=%d): %v", workers, err)
		}
		horizon := sweep.Cells[len(sweep.Cells)-1]
		if horizon.Estimate != single.Estimate {
			t.Errorf("workers=%d: horizon cell %+v, single-bound run %+v",
				workers, horizon.Estimate, single.Estimate)
		}
	}
}

// TestAnalyzeSweepDeterministic pins that sweep reports are a pure
// function of (model, property, seed, workers) under parallelism.
func TestAnalyzeSweepDeterministic(t *testing.T) {
	rt := markovNet(t, 0.2)
	bounds := []float64{1, 4, 9}
	cfg := sweepCfg(strategy.Progressive{}, prop.Reach(0, failedRef()), 0.05, 4)
	r1, err := AnalyzeSweep(rt, cfg, bounds)
	if err != nil {
		t.Fatalf("AnalyzeSweep: %v", err)
	}
	r2, err := AnalyzeSweep(rt, cfg, bounds)
	if err != nil {
		t.Fatalf("AnalyzeSweep: %v", err)
	}
	for i := range r1.Cells {
		if r1.Cells[i].Estimate != r2.Cells[i].Estimate {
			t.Errorf("cell %d differs across runs: %+v vs %+v", i, r1.Cells[i], r2.Cells[i])
		}
	}
	if r1.Paths != r2.Paths {
		t.Errorf("shared paths differ: %d vs %d", r1.Paths, r2.Paths)
	}
}

// TestSweepFanoutAllocs gates the per-path cost of the multi-estimator
// fan-out: mapping a path result to its outcome vector and feeding every
// cell must not allocate at all (the ε made small enough that no cell
// freezes during the measurement).
func TestSweepFanoutAllocs(t *testing.T) {
	p := prop.Property{Kind: prop.Reachability, Bound: 64, Goal: goalRef()}
	sweep, err := prop.NewSweep(p, []float64{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	me, err := stats.NewMultiEstimator(stats.MethodChernoff, stats.Params{Delta: 1e-3, Epsilon: 1e-3}, sweep.Cells())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, sweep.Cells())
	res := PathResult{Satisfied: true, DecidedAt: 5}
	avg := testing.AllocsPerRun(1000, func() {
		sweep.Outcomes(res.Satisfied, res.DecidedAt, out)
		if err := me.Add(out); err != nil {
			t.Fatal(err)
		}
		res.DecidedAt += 0.001 // vary the hit time across paths
	})
	if avg != 0 {
		t.Errorf("sweep fan-out allocates %.2f objects per path, want 0", avg)
	}
}

// lockNet builds a model whose paths differ in length and end two ways: a
// Markovian chain ok → worn → failed (rate 0.3 per stage) reaches the goal
// "failed", racing a guard window x ∈ [20, 30] that the invariant x ≤ 5
// never lets open — so a path that has not failed by time 5 timelocks.
func lockNet(t testing.TB) *network.Runtime {
	t.Helper()
	failedID, xID := expr.VarID(0), expr.VarID(1)
	x := func() expr.Expr { return expr.Var("x", xID) }
	wear := &sta.Process{
		Name:      "wear",
		Locations: []sta.Location{{Name: "ok"}, {Name: "worn"}, {Name: "failed"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Rate: 0.3},
			{From: 1, To: 2, Action: sta.Tau, Rate: 0.3,
				Effects: []sta.Assignment{{Var: failedID, Name: "failed", Expr: expr.True()}}},
		},
		Vars: []expr.VarID{failedID},
	}
	lock := &sta.Process{
		Name: "lock",
		Locations: []sta.Location{
			{Name: "wait", Invariant: expr.Bin(expr.OpLe, x(), expr.Literal(expr.RealVal(5)))},
			{Name: "done"},
		},
		Initial: 0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Guard: expr.And(
				expr.Bin(expr.OpGe, x(), expr.Literal(expr.RealVal(20))),
				expr.Bin(expr.OpLe, x(), expr.Literal(expr.RealVal(30))),
			)},
		},
		Vars: []expr.VarID{xID},
	}
	rt, err := network.New(&sta.Network{
		Processes: []*sta.Process{wear, lock},
		Vars: []sta.VarDecl{
			{Name: "failed", Type: expr.BoolType(), Init: expr.BoolVal(false)},
			{Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)},
		},
	})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return rt
}

// TestRunSummaryDeterministic pins that the whole run summary, not just
// the estimate, is a pure function of (model, property, seed, workers):
// lock and step counts cover the consumed paths only, never the paths
// workers overdrew past the stopping point. Only the wall clock and the
// engine's cache counters may differ between identical runs.
func TestRunSummaryDeterministic(t *testing.T) {
	rt := lockNet(t)
	cfg := sweepCfg(strategy.ASAP{}, prop.Reach(10, failedRef()), 0.05, 2)
	cfg.Seed = 5
	var first Report
	for i := 0; i < 20; i++ {
		rep, err := Analyze(rt, cfg)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		rep.Elapsed = 0
		if i == 0 {
			first = rep
			if rep.Timelocks == 0 || rep.Timelocks == rep.Paths {
				t.Fatalf("%d timelocks in %d paths, want some but not all", rep.Timelocks, rep.Paths)
			}
			continue
		}
		if rep != first {
			t.Fatalf("run %d report differs:\n%+v\nfirst:\n%+v", i, rep, first)
		}
	}

	var firstSweep SweepReport
	for i := 0; i < 20; i++ {
		rep, err := AnalyzeSweep(rt, cfg, []float64{2, 5, 10})
		if err != nil {
			t.Fatalf("AnalyzeSweep: %v", err)
		}
		rep.Elapsed = 0
		if i == 0 {
			firstSweep = rep
			continue
		}
		if !reflect.DeepEqual(rep, firstSweep) {
			t.Fatalf("sweep run %d report differs:\n%+v\nfirst:\n%+v", i, rep, firstSweep)
		}
	}
}
