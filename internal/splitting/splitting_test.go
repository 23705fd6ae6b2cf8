package splitting

import (
	"math"
	"testing"

	"slimsim/internal/absint"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/sim"
	"slimsim/internal/sta"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
)

// chainNet builds the canonical rare-event chain: s0 →λ s1 →λ … →λ s_k
// with high-rate repair s_i →μ s0 from every intermediate state, and a
// Boolean "down" raised on entering s_k. Reaching down within a bound is
// exponentially unlikely in k when μ ≫ λ.
func chainNet(t testing.TB, k int, lambda, mu float64) *network.Runtime {
	t.Helper()
	downID := expr.VarID(0)
	locs := make([]sta.Location, k+1)
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"}
	for i := range locs {
		locs[i] = sta.Location{Name: names[i]}
	}
	var trs []sta.Transition
	for i := 0; i < k; i++ {
		tr := sta.Transition{From: sta.LocID(i), To: sta.LocID(i + 1), Action: sta.Tau, Rate: lambda}
		if i == k-1 {
			tr.Effects = []sta.Assignment{{Var: downID, Name: "down", Expr: expr.True()}}
		}
		trs = append(trs, tr)
	}
	for i := 1; i < k; i++ {
		trs = append(trs, sta.Transition{From: sta.LocID(i), To: 0, Action: sta.Tau, Rate: mu})
	}
	p := &sta.Process{
		Name:        "chain",
		Locations:   locs,
		Initial:     0,
		Transitions: trs,
		Vars:        []expr.VarID{downID},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars:      []sta.VarDecl{{Name: "down", Type: expr.BoolType(), Init: expr.BoolVal(false)}},
	}
	rt, err := network.New(net)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return rt
}

func downRef() expr.Expr { return expr.Var("down", 0) }

func chainConfig(t testing.TB, rt *network.Runtime, bound float64, seed uint64) Config {
	t.Helper()
	strat, err := strategy.ByName("asap")
	if err != nil {
		t.Fatal(err)
	}
	p := prop.Reach(bound, downRef())
	static := absint.Analyze(rt).Decide(p)
	return Config{
		AnalysisConfig: sim.AnalysisConfig{
			Config: sim.Config{Strategy: strat, Property: p},
			Params: stats.Params{Delta: 0.05, Epsilon: 0.01},
			Seed:   seed,
		},
		Static: &static,
	}
}

func exactChain(t testing.TB, rt *network.Runtime, bound float64) float64 {
	t.Helper()
	res, err := ctmc.Build(rt, downRef(), 1<<16)
	if err != nil {
		t.Fatalf("ctmc.Build: %v", err)
	}
	p, err := res.Chain.ReachWithin(bound, 1e-12)
	if err != nil {
		t.Fatalf("ReachWithin: %v", err)
	}
	return p
}

// The headline guarantee: on a chain with exact P ≈ 1e-6 the splitting
// estimate lands within a tight relative band at a budget (levels × effort)
// where plain Monte Carlo would expect to see ~0 successful paths.
func TestSplittingMatchesExactOnRareChain(t *testing.T) {
	rt := chainNet(t, 6, 0.3, 3)
	const bound = 10
	exact := exactChain(t, rt, bound)
	if exact > 1e-4 || exact < 1e-9 {
		t.Fatalf("test model is not rare enough: exact P = %g", exact)
	}
	cfg := chainConfig(t, rt, bound, 1)
	cfg.Effort = 8192
	rep, err := Analyze(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degenerate {
		t.Fatalf("expected a multi-level run, got degenerate (source=%s)", rep.LevelSource)
	}
	if rep.LevelSource != "goal-distance" {
		t.Fatalf("level source = %s, want goal-distance", rep.LevelSource)
	}
	relErr := math.Abs(rep.Probability-exact) / exact
	t.Logf("exact=%g splitting=%g relErr=%.3f levels=%d branches=%d",
		exact, rep.Probability, relErr, len(rep.Stages), rep.Branches)
	if relErr > 0.15 {
		t.Fatalf("splitting estimate %g vs exact %g: relative error %.3f > 0.15",
			rep.Probability, exact, relErr)
	}
	// The same budget spent on plain paths would be hopeless: expected
	// successes below 1.
	if float64(rep.Branches)*exact > 1 {
		t.Fatalf("budget %d too generous for a fair rare-event claim (exact=%g)", rep.Branches, exact)
	}
}

// Degenerate splitting (one level) must delegate to plain Monte Carlo and
// reproduce its estimate bit-for-bit on the same seed and workers.
func TestSplittingSingleLevelBitIdenticalToPlainMC(t *testing.T) {
	rt := chainNet(t, 3, 1, 2)
	for _, workers := range []int{1, 3} {
		cfg := chainConfig(t, rt, 5, 42)
		cfg.Levels = 1
		cfg.Workers = workers
		cfg.Params = stats.Params{Delta: 0.1, Epsilon: 0.05}
		rep, err := Analyze(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := sim.Analyze(rt, cfg.AnalysisConfig)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degenerate || rep.MC == nil {
			t.Fatalf("workers=%d: single-level run did not degenerate", workers)
		}
		if rep.Probability != mc.Probability || rep.MC.Estimate != mc.Estimate {
			t.Fatalf("workers=%d: degenerate splitting %v != plain MC %v", workers, rep.MC.Estimate, mc.Estimate)
		}
	}
}

// The splitting estimate is invariant under the worker count, not merely
// deterministic per worker count: branch randomness is keyed on the global
// branch index.
func TestSplittingWorkerCountInvariant(t *testing.T) {
	rt := chainNet(t, 4, 0.5, 2)
	var ref Report
	for i, workers := range []int{1, 2, 7} {
		cfg := chainConfig(t, rt, 8, 9)
		cfg.Effort = 512
		cfg.Workers = workers
		rep, err := Analyze(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rep
			continue
		}
		if rep.Probability != ref.Probability {
			t.Fatalf("workers=%d: probability %g != workers=1 %g", workers, rep.Probability, ref.Probability)
		}
		for j, st := range rep.Stages {
			if st != ref.Stages[j] {
				t.Fatalf("workers=%d: stage %d %+v != %+v", workers, j, st, ref.Stages[j])
			}
		}
	}
}

// Validation and threshold selection corner cases.
func TestThresholdSelection(t *testing.T) {
	cases := []struct {
		maxLevel, want int
		expect         []int
	}{
		{0, 0, nil},
		{1, 0, []int{1}},
		{4, 0, []int{1, 2, 3, 4}},
		{4, 3, []int{2, 4}},
		{4, 2, []int{4}},
		{4, 9, []int{1, 2, 3, 4}},
		// Auto-derivation caps at maxAutoThresholds (16) values spread
		// over 1..30.
		{30, 0, []int{2, 4, 6, 8, 10, 12, 14, 15, 17, 19, 21, 23, 25, 27, 29, 30}},
	}
	for _, c := range cases {
		got := thresholds(c.maxLevel, c.want)
		if len(got) != len(c.expect) {
			t.Fatalf("thresholds(%d,%d) = %v, want %v", c.maxLevel, c.want, got, c.expect)
		}
		for i := range got {
			if got[i] != c.expect[i] {
				t.Fatalf("thresholds(%d,%d) = %v, want %v", c.maxLevel, c.want, got, c.expect)
			}
		}
	}
}

func TestAnalyzeRejectsNegativeKnobs(t *testing.T) {
	rt := chainNet(t, 3, 1, 2)
	cfg := chainConfig(t, rt, 5, 1)
	cfg.Levels = -1
	if _, err := Analyze(rt, cfg); err == nil {
		t.Fatal("negative levels accepted")
	}
	cfg = chainConfig(t, rt, 5, 1)
	cfg.Effort = -4
	if _, err := Analyze(rt, cfg); err == nil {
		t.Fatal("negative effort accepted")
	}
}

// The fallback level function engages when no goal-distance map is
// available: the local-progress level scores the chain's position by BFS
// distance from s0, so the run still splits one stage per chain step.
func TestSplittingFallbackLevelFunction(t *testing.T) {
	rt := chainNet(t, 4, 0.5, 2)
	cfg := chainConfig(t, rt, 8, 3)
	cfg.Static = nil
	cfg.Effort = 1024
	rep, err := Analyze(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LevelSource != "local-progress" {
		t.Fatalf("level source = %s, want local-progress", rep.LevelSource)
	}
	exact := exactChain(t, rt, 8)
	if relErr := math.Abs(rep.Probability-exact) / exact; relErr > 0.5 {
		t.Fatalf("fallback estimate %g vs exact %g: relative error %.3f", rep.Probability, exact, relErr)
	}
}

// TestSplittingCloneAllocs is the allocation gate of the splitting hot
// path: cloning an entry state through the pooled free list must allocate
// nothing once the pool is warm (bench-smoke runs this under -race).
func TestSplittingCloneAllocs(t *testing.T) {
	rt := chainNet(t, 4, 0.5, 2)
	pool := &statePool{rt: rt}
	src := rt.NewState()
	if err := rt.NewScratch().InitialStateInto(&src); err != nil {
		t.Fatal(err)
	}
	warm := pool.get()
	pool.put(warm)
	allocs := testing.AllocsPerRun(1000, func() {
		st := pool.get()
		st.CopyFrom(&src)
		pool.put(st)
	})
	if allocs != 0 {
		t.Fatalf("pooled clone allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkSplittingClone(b *testing.B) {
	rt := chainNet(b, 4, 0.5, 2)
	pool := &statePool{rt: rt}
	src := rt.NewState()
	if err := rt.NewScratch().InitialStateInto(&src); err != nil {
		b.Fatal(err)
	}
	warm := pool.get()
	pool.put(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pool.get()
		st.CopyFrom(&src)
		pool.put(st)
	}
}
