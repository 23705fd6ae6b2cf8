package sim

import (
	"fmt"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/slim"
	"slimsim/internal/sta"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
)

// cycleNet builds a model whose paths run long: a clock-driven two-location
// cycle (fire at x ∈ [1,2], reset) racing a slow Markovian breaker. The
// reachability goal never holds, so a path only ends at the property bound.
func cycleNet(tb testing.TB) *network.Runtime {
	tb.Helper()
	xID, gID := expr.VarID(0), expr.VarID(1)
	x := func() expr.Expr { return expr.Var("x", xID) }
	timer := &sta.Process{
		Name: "timer",
		Locations: []sta.Location{
			{Name: "a", Invariant: expr.Bin(expr.OpLe, x(), expr.Literal(expr.RealVal(2)))},
			{Name: "b", Invariant: expr.Bin(expr.OpLe, x(), expr.Literal(expr.RealVal(2)))},
		},
		Initial: 0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau,
				Guard:   expr.Bin(expr.OpGe, x(), expr.Literal(expr.RealVal(1))),
				Effects: []sta.Assignment{{Var: xID, Name: "x", Expr: expr.Literal(expr.RealVal(0))}}},
			{From: 1, To: 0, Action: sta.Tau,
				Guard:   expr.Bin(expr.OpGe, x(), expr.Literal(expr.RealVal(1))),
				Effects: []sta.Assignment{{Var: xID, Name: "x", Expr: expr.Literal(expr.RealVal(0))}}},
		},
		Vars: []expr.VarID{xID},
	}
	breaker := &sta.Process{
		Name:        "breaker",
		Locations:   []sta.Location{{Name: "up"}, {Name: "down"}},
		Initial:     0,
		Transitions: []sta.Transition{{From: 0, To: 1, Action: sta.Tau, Rate: 1e-6}},
	}
	net := &sta.Network{
		Processes: []*sta.Process{timer, breaker},
		Vars: []sta.VarDecl{
			{Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)},
			{Name: "goal", Type: expr.BoolType(), Init: expr.BoolVal(false)},
		},
	}
	// goal is declared but never assigned: the property stays undecided
	// until its bound.
	_ = gID
	rt, err := network.New(net)
	if err != nil {
		tb.Fatalf("network.New: %v", err)
	}
	return rt
}

func goalRef() expr.Expr { return expr.Var("goal", 1) }

// benchEngine returns an engine plus a ready-to-step scratch on cycleNet.
func benchEngine(tb testing.TB, bound float64) (*Engine, *pathScratch) {
	tb.Helper()
	rt := cycleNet(tb)
	eng, err := NewEngine(rt, Config{
		Strategy: strategy.ASAP{},
		Property: prop.Reach(bound, goalRef()),
	})
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	ps := eng.scratch.Get().(*pathScratch)
	return eng, ps
}

// BenchmarkStep measures one engine step (MaxDelay, Moves, guard
// windows, strategy decision, property check, timed+discrete successor) in
// steady state.
func BenchmarkStep(b *testing.B) {
	eng, ps := benchEngine(b, 1e18)
	cur, nxt := &ps.stA, &ps.stB
	if err := ps.net.InitialStateInto(cur); err != nil {
		b.Fatal(err)
	}
	src := rng.New(7)
	var res PathResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, newCur, err := eng.step(ps, cur, nxt, src, &res)
		if err != nil {
			b.Fatal(err)
		}
		if newCur != cur {
			cur, nxt = newCur, cur
		}
	}
}

// BenchmarkSamplePath measures whole paths of ~1000 steps through the
// public entry point, including scratch pool round-trips.
func BenchmarkSamplePath(b *testing.B) {
	rt := cycleNet(b)
	eng, err := NewEngine(rt, Config{
		Strategy: strategy.ASAP{},
		Property: prop.Reach(1000, goalRef()),
	})
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	src := rng.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SamplePath(src); err != nil {
			b.Fatal(err)
		}
	}
}

// stepAllocBudget is the per-step allocation gate. The residual allocations
// are the interval sets materialized for clock guard windows and the delay
// clip; everything else (states, move sets, contexts, environments) is
// pooled, and labels are read only with an observer.
const stepAllocBudget = 12

func TestStepAllocs(t *testing.T) {
	eng, ps := benchEngine(t, 1e18)
	cur, nxt := &ps.stA, &ps.stB
	if err := ps.net.InitialStateInto(cur); err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	var res PathResult
	// Warm up: grow the move-set and window scratch.
	for i := 0; i < 64; i++ {
		_, newCur, err := eng.step(ps, cur, nxt, src, &res)
		if err != nil {
			t.Fatal(err)
		}
		if newCur != cur {
			cur, nxt = newCur, cur
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		_, newCur, err := eng.step(ps, cur, nxt, src, &res)
		if err != nil {
			t.Fatal(err)
		}
		if newCur != cur {
			cur, nxt = newCur, cur
		}
	})
	if avg > stepAllocBudget {
		t.Errorf("engine step allocates %.1f objects per step, budget %d", avg, stepAllocBudget)
	}
}

// sensorFilterBound is the time bound of the committed Table I.
const sensorFilterBound = 150

// sensorFilterConfig compiles the Table I sensor filter at redundancy n and
// returns its runtime with the Table I property: P(goal within
// sensorFilterBound) under ASAP. Its location-vector space grows with n:
// 2^(2n+1) vectors, each path visiting new ones.
func sensorFilterConfig(tb testing.TB, n int) (*network.Runtime, Config) {
	tb.Helper()
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := slim.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := model.Instantiate(m)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := network.New(b.Net)
	if err != nil {
		tb.Fatal(err)
	}
	goal, err := b.CompileExpr(casestudy.SensorFilterGoal)
	if err != nil {
		tb.Fatal(err)
	}
	return rt, Config{Strategy: strategy.ASAP{}, Property: prop.Reach(sensorFilterBound, goal)}
}

// BenchmarkAnalyzeSensorFilter measures one Table I simulator query
// (ε=0.04, δ=0.05) end to end through Analyze: N=5 with 1 and 2 workers,
// and N=7 with 1 worker, the size class of the perfbench table1-sim p90.
// Every op builds a fresh engine, so a real query's arena warm-up is
// included.
func BenchmarkAnalyzeSensorFilter(b *testing.B) {
	for _, c := range []struct{ n, workers int }{{5, 1}, {5, 2}, {7, 1}} {
		rt, cfg := sensorFilterConfig(b, c.n)
		b.Run(fmt.Sprintf("N=%d/workers=%d", c.n, c.workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(rt, AnalysisConfig{
					Config:  cfg,
					Params:  stats.Params{Delta: 0.05, Epsilon: 0.04},
					Workers: c.workers,
					Seed:    uint64(i + 1),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// coldPathAllocBudget gates the allocations of 64 sensor-filter (N=5)
// paths drawn from a fresh arena. Measured 961 (Go 1.24, linux/amd64); the
// budget leaves ~30% headroom. Move sets are composed from the runtime's
// static tables into the arena's set, so what remains is the arena's
// warm-up and, per step, the interval sets of the delay clip.
const coldPathAllocBudget = 1250

func TestColdPathAllocs(t *testing.T) {
	rt, cfg := sensorFilterConfig(t, 5)
	eng, err := NewEngine(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		ps := eng.newScratch()
		src := rng.New(1)
		for i := 0; i < 64; i++ {
			if _, err := eng.samplePath(ps, src); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > coldPathAllocBudget {
		t.Errorf("64 fresh-arena sensor-filter paths allocate %.0f objects, budget %d", avg, coldPathAllocBudget)
	}
}

// TestNoObserverRendersNoLabels: trace labels exist for observers and the
// interactive prompt only, so sampling without an observer must never build
// the runtime's label table; the same paths with an observer do build it
// (the check can fail).
func TestNoObserverRendersNoLabels(t *testing.T) {
	for _, obs := range []Observer{nil, &orderObserver{}} {
		rt, cfg := sensorFilterConfig(t, 5)
		cfg.Observer = obs
		eng, err := NewEngine(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := eng.newScratch()
		src := rng.New(3)
		for i := 0; i < 200; i++ {
			if _, err := eng.samplePath(ps, src); err != nil {
				t.Fatal(err)
			}
		}
		switch built := rt.LabelTableBuilt(); {
		case obs == nil && built:
			t.Error("sampling without an observer built the label table")
		case obs != nil && !built:
			t.Error("sampling with an observer built no label table")
		}
	}
}
