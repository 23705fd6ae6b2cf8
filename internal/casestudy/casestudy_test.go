package casestudy

import (
	"math"
	"strings"
	"testing"

	"slimsim/internal/bisim"
	"slimsim/internal/ctmc"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/sim"
	"slimsim/internal/slim"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
)

// build parses and instantiates generated SLIM source.
func build(t *testing.T, src string) (*model.Built, *network.Runtime) {
	t.Helper()
	m, err := slim.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nsource:\n%s", err, src)
	}
	b, err := model.Instantiate(m)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	rt, err := network.New(b.Net)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return b, rt
}

func TestSensorFilterGenerates(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		src, err := SensorFilter(DefaultSensorFilter(n))
		if err != nil {
			t.Fatalf("SensorFilter(%d): %v", n, err)
		}
		b, rt := build(t, src)
		goal, err := b.CompileExpr(SensorFilterGoal)
		if err != nil {
			t.Fatalf("goal: %v", err)
		}
		st := rt.NewState()
		if err := rt.NewScratch().InitialStateInto(&st); err != nil {
			t.Fatal(err)
		}
		_ = goal
	}
	if _, err := SensorFilter(SensorFilterParams{}); err == nil {
		t.Error("zero params should be rejected")
	}
}

// TestSensorFilterSimulatorMatchesCTMC is the core Table I soundness
// check: both analysis flows must agree on the failure probability within
// the simulator's ε.
func TestSensorFilterSimulatorMatchesCTMC(t *testing.T) {
	src, err := SensorFilter(DefaultSensorFilter(2))
	if err != nil {
		t.Fatal(err)
	}
	b, rt := build(t, src)
	goal, err := b.CompileExpr(SensorFilterGoal)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 80.0

	// Numerical reference: explicit CTMC + uniformization.
	res, err := ctmc.Build(rt, goal, 1<<18)
	if err != nil {
		t.Fatalf("ctmc.Build: %v", err)
	}
	exact, err := res.Chain.ReachWithin(bound, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0.01 || exact >= 0.99 {
		t.Fatalf("degenerate reference probability %v; tune the benchmark rates", exact)
	}

	// Lumping must preserve it.
	lumped, err := bisim.Lump(res.Chain)
	if err != nil {
		t.Fatalf("Lump: %v", err)
	}
	lumpedP, err := lumped.Quotient.ReachWithin(bound, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-lumpedP) > 1e-8 {
		t.Errorf("lumped %v vs exact %v", lumpedP, exact)
	}
	if lumped.Blocks >= res.Chain.NumStates() {
		t.Errorf("lumping did not shrink the chain: %d blocks of %d states",
			lumped.Blocks, res.Chain.NumStates())
	}

	// Monte Carlo estimate with the ASAP strategy (maximal progress, the
	// untimed semantics of the baseline flow).
	rep, err := sim.Analyze(rt, sim.AnalysisConfig{
		Config: sim.Config{Strategy: strategy.ASAP{}, Property: prop.Reach(bound, goal)},
		Params: stats.Params{Delta: 0.05, Epsilon: 0.02},
		Seed:   7,
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if math.Abs(rep.Probability-exact) > 0.03 {
		t.Errorf("simulator %v vs uniformization %v (Δ > 0.03)", rep.Probability, exact)
	}
}

func TestLauncherGenerates(t *testing.T) {
	for _, mode := range []FaultMode{FaultsPermanent, FaultsRecoverable} {
		src, err := Launcher(DefaultLauncher(mode))
		if err != nil {
			t.Fatalf("Launcher(%v): %v", mode, err)
		}
		b, rt := build(t, src)
		goal, err := b.CompileExpr(LauncherGoal)
		if err != nil {
			t.Fatalf("goal: %v", err)
		}
		sc := rt.NewScratch()
		st := rt.NewState()
		if err := sc.InitialStateInto(&st); err != nil {
			t.Fatal(err)
		}
		// Initially everything is healthy: both thrusters powered.
		v, err := goal.Eval(sc.Env(&st))
		if err != nil {
			t.Fatal(err)
		}
		if v.Bool() {
			t.Error("system should not start failed")
		}
	}
	if _, err := Launcher(LauncherParams{}); err == nil {
		t.Error("zero params should be rejected")
	}
	if _, err := Launcher(LauncherParams{Faults: FaultsRecoverable, DPUFailRate: 1,
		SensorFailRate: 1, BatteryFailRate: 1, RestartLo: 5, RestartSafe: 2, RestartHi: 1}); err == nil {
		t.Error("inverted restart window should be rejected")
	}
}

// TestLauncherStrategySeparation reproduces the Fig. 5 qualitative claims
// on a short horizon: permanent faults make strategies coincide;
// recoverable faults separate them with ASAP worst and MaxTime best.
func TestLauncherStrategySeparation(t *testing.T) {
	const bound = 600
	params := stats.Params{Delta: 0.1, Epsilon: 0.03}
	run := func(mode FaultMode, s strategy.Strategy) float64 {
		src, err := Launcher(DefaultLauncher(mode))
		if err != nil {
			t.Fatal(err)
		}
		b, rt := build(t, src)
		goal, err := b.CompileExpr(LauncherGoal)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Analyze(rt, sim.AnalysisConfig{
			Config:  sim.Config{Strategy: s, Property: prop.Reach(bound, goal)},
			Params:  params,
			Workers: 4,
			Seed:    11,
		})
		if err != nil {
			t.Fatalf("Analyze(%v, %s): %v", mode, s.Name(), err)
		}
		return rep.Probability
	}

	// Permanent: ASAP and MaxTime statistically indistinguishable.
	permASAP := run(FaultsPermanent, strategy.ASAP{})
	permMax := run(FaultsPermanent, strategy.MaxTime{})
	if math.Abs(permASAP-permMax) > 3*params.Epsilon {
		t.Errorf("permanent faults: ASAP %v vs MaxTime %v should coincide", permASAP, permMax)
	}

	// Recoverable: ASAP > Progressive > MaxTime.
	recASAP := run(FaultsRecoverable, strategy.ASAP{})
	recProg := run(FaultsRecoverable, strategy.Progressive{})
	recMax := run(FaultsRecoverable, strategy.MaxTime{})
	if !(recASAP > recProg+params.Epsilon && recProg > recMax+params.Epsilon) {
		t.Errorf("recoverable faults: want ASAP (%v) > Progressive (%v) > MaxTime (%v) with clear separation",
			recASAP, recProg, recMax)
	}
}

func TestGeneratedSourceMentionsPaperStructure(t *testing.T) {
	src, err := Launcher(DefaultLauncher(FaultsRecoverable))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PCDU", "GPS", "Gyro", "Triplex", "Thruster", "derive energy' = -1.0", "extend dpu11"} {
		if !strings.Contains(src, want) {
			t.Errorf("launcher source missing %q", want)
		}
	}
	src, err = SensorFilter(DefaultSensorFilter(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Sensor", "Filter", "Monitor", "extend s3", "extend f3"} {
		if !strings.Contains(src, want) {
			t.Errorf("sensor-filter source missing %q", want)
		}
	}
}
