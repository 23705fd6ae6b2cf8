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

// TestStepAllocs: a warm step of the clock cycle allocates nothing. States,
// move sets, contexts and environments are pooled, the clock guard windows
// and the delay clip live in the scratch's interval arena, and labels are
// read only with an observer.
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
	if avg != 0 {
		t.Errorf("engine step allocates %.2f objects per step, want 0", avg)
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
	return compileConfig(tb, src, casestudy.SensorFilterGoal, sensorFilterBound, strategy.ASAP{})
}

// launcherBounds are the time bounds of the committed Fig. 5 sweep.
var launcherBounds = []float64{200, 400, 600, 800, 1000, 1200}

// launcherConfig compiles the Fig. 5 launcher with recoverable faults and
// returns its runtime with the Fig. 5 property under strat: P(control of
// the thrusters is lost within the sweep horizon). 51 of its 57 flows lie
// downstream of the two PCDU batteries' continuous energy levels.
func launcherConfig(tb testing.TB, strat strategy.Strategy) (*network.Runtime, Config) {
	tb.Helper()
	src, err := casestudy.Launcher(casestudy.DefaultLauncher(casestudy.FaultsRecoverable))
	if err != nil {
		tb.Fatal(err)
	}
	return compileConfig(tb, src, casestudy.LauncherGoal, launcherBounds[len(launcherBounds)-1], strat)
}

// compileConfig compiles a SLIM model and returns its runtime with the
// property P(goal within bound) under strat.
func compileConfig(tb testing.TB, src, goalSrc string, bound float64, strat strategy.Strategy) (*network.Runtime, Config) {
	tb.Helper()
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
	goal, err := b.CompileExpr(goalSrc)
	if err != nil {
		tb.Fatal(err)
	}
	return rt, Config{Strategy: strat, Property: prop.Reach(bound, goal)}
}

// BenchmarkAnalyzeSensorFilter measures one Table I simulator query
// (ε=0.04, δ=0.05) end to end through Analyze: N=5 with 1 and 2 workers,
// N=7 with 1 and 2 workers (2 workers at N=7 is the configuration of the
// perfbench table1-sim p90 class), and N=3 with 2 workers, the class whose
// two-worker penalty docs/PERFORMANCE.md tracks. Every op builds a fresh
// engine, so a real query's arena warm-up is included.
func BenchmarkAnalyzeSensorFilter(b *testing.B) {
	for _, c := range []struct{ n, workers int }{{5, 1}, {5, 2}, {7, 1}, {7, 2}, {3, 2}} {
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
// paths drawn from a fresh arena. Measured 19 (Go 1.24, linux/amd64); the
// budget leaves ~30% headroom. Move sets are composed from the runtime's
// static tables into the arena's set, guards are answered by the arena's
// cache and the delay clip [0, ∞) is shared, so what remains is the
// arena's warm-up.
const coldPathAllocBudget = 25

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

// Guard programs that 200 seed-1 sensor-filter (N=7) paths run on guard
// cache misses, and the guard evaluations the same paths need without the
// cache (Go 1.24, linux/amd64; the counts are deterministic).
const (
	sensorFilterGuardRuns    = 8975
	sensorFilterGuardWindows = 64800
)

// TestGuardCacheRuns gates the guard cache's hit rate exactly: on a fixed
// seed the guard programs run on misses and the uncached evaluation count
// are pinned, and the cache must save at least two thirds of the
// evaluations. The paths are stepped here as samplePath steps them, so the
// uncached count, the guarded candidate moves of every step, can be summed;
// on this model every move has one part.
func TestGuardCacheRuns(t *testing.T) {
	rt, cfg := sensorFilterConfig(t, 7)
	eng, err := NewEngine(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := eng.newScratch()
	cur, nxt := &ps.stA, &ps.stB
	src := rng.New(1)
	windows := 0
	for i := 0; i < 200; i++ {
		if err := ps.net.InitialStateInto(cur); err != nil {
			t.Fatal(err)
		}
		ps.guards.Reset()
		var res PathResult
		for v := prop.Undecided; v == prop.Undecided; {
			var newCur *network.State
			if v, newCur, err = eng.step(ps, cur, nxt, src, &res); err != nil {
				t.Fatal(err)
			}
			if newCur != cur {
				cur, nxt = newCur, cur
			}
			windows += len(ps.moves.Guarded)
		}
	}
	runs := ps.guards.Runs()
	if runs != sensorFilterGuardRuns || windows != sensorFilterGuardWindows {
		t.Errorf("guard cache ran %d guard programs for %d uncached evaluations, want %d for %d",
			runs, windows, sensorFilterGuardRuns, sensorFilterGuardWindows)
	}
	if 3*runs > windows {
		t.Errorf("guard cache ran %d guard programs, more than a third of %d", runs, windows)
	}
}

// TestCachedStepAllocs: once the arena has warmed up, a sensor-filter step
// whose guards the cache answers allocates nothing; neither does the delay
// clip, which is [0, ∞) on this model. A path that ends restarts from the
// initial state, as samplePath would.
func TestCachedStepAllocs(t *testing.T) {
	rt, cfg := sensorFilterConfig(t, 7)
	eng, err := NewEngine(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := eng.newScratch()
	cur, nxt := &ps.stA, &ps.stB
	src := rng.New(7)
	var res PathResult
	step := func() {
		v, newCur, err := eng.step(ps, cur, nxt, src, &res)
		if err != nil {
			t.Fatal(err)
		}
		if newCur != cur {
			cur, nxt = newCur, cur
		}
		if v != prop.Undecided {
			if err := ps.net.InitialStateInto(cur); err != nil {
				t.Fatal(err)
			}
			ps.guards.Reset()
		}
	}
	if err := ps.net.InitialStateInto(cur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Errorf("a cached sensor-filter step allocates %.2f objects, want 0", avg)
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

// TestLauncherStepAllocs gates the timed step path: on the launcher every
// delay moves two continuous variables and most steps evaluate clock guard
// windows and an invariant bound, whose sets, intersections and strategy
// unions all live in the scratch's interval arena. Once the arena has
// warmed up, steps run under each Fig. 5 strategy without allocating, and
// a path that ends restarts from the initial state, as samplePath would.
func TestLauncherStepAllocs(t *testing.T) {
	for _, name := range []string{"asap", "progressive", "local", "maxtime"} {
		strat, err := strategy.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rt, cfg := launcherConfig(t, strat)
		eng, err := NewEngine(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := eng.newScratch()
		cur, nxt := &ps.stA, &ps.stB
		src := rng.New(7)
		var res PathResult
		step := func() {
			v, newCur, err := eng.step(ps, cur, nxt, src, &res)
			if err != nil {
				t.Fatal(err)
			}
			if newCur != cur {
				cur, nxt = newCur, cur
			}
			if v != prop.Undecided {
				if err := ps.net.InitialStateInto(cur); err != nil {
					t.Fatal(err)
				}
				ps.guards.Reset()
				res = PathResult{}
			}
		}
		if err := ps.net.InitialStateInto(cur); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(1000, step); avg != 0 {
			t.Errorf("%s: a warm launcher step allocates %.3f objects, want 0", name, avg)
		}
	}
}

// TestLauncherArenaBounded: the step resets the interval arena, so over a
// 10k-step launcher walk its backing stops growing once it has warmed up:
// it needs room for one step's sets, a few dozen intervals, and reaches
// that size within the first half of the walk under every strategy.
func TestLauncherArenaBounded(t *testing.T) {
	for _, name := range []string{"asap", "progressive", "local", "maxtime"} {
		strat, err := strategy.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rt, cfg := launcherConfig(t, strat)
		eng, err := NewEngine(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := eng.newScratch()
		cur, nxt := &ps.stA, &ps.stB
		src := rng.New(7)
		var res PathResult
		warm := 0
		for i := 0; i < 10000; i++ {
			if i == 0 || res.Termination != 0 {
				if err := ps.net.InitialStateInto(cur); err != nil {
					t.Fatal(err)
				}
				ps.guards.Reset()
				res = PathResult{}
			}
			_, newCur, err := eng.step(ps, cur, nxt, src, &res)
			if err != nil {
				t.Fatal(err)
			}
			if newCur != cur {
				cur, nxt = newCur, cur
			}
			if i == 4999 {
				warm = ps.net.Arena().Cap()
			}
		}
		if got := ps.net.Arena().Cap(); got != warm {
			t.Errorf("%s: arena capacity %d after 10k steps, %d after 5k", name, got, warm)
		}
	}
}

// BenchmarkAnalyzeLauncher measures one Fig. 5 sweep per strategy on the
// recoverable launcher (ε=0.06, δ=0.05, the loose class of the perfbench
// launcher-sweep workload) end to end through AnalyzeSweep, with 1 and 2
// workers. Unlike the sensor filter, the launcher's delays move continuous
// variables that most of its flows read. Every op builds fresh engines, so
// a real query's arena warm-up is included.
func BenchmarkAnalyzeLauncher(b *testing.B) {
	rt, cfg := launcherConfig(b, nil) // the strategy is set per sweep
	var strategies []strategy.Strategy
	for _, name := range []string{"asap", "progressive", "local", "maxtime"} {
		strat, err := strategy.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		strategies = append(strategies, strat)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, strat := range strategies {
					cfg.Strategy = strat
					if _, err := AnalyzeSweep(rt, AnalysisConfig{
						Config:  cfg,
						Params:  stats.Params{Delta: 0.05, Epsilon: 0.06},
						Workers: workers,
						Seed:    uint64(i + 1),
					}, launcherBounds); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
