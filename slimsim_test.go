package slimsim

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slimsim/internal/casestudy"
)

// simpleSrc is a minimal Markovian model with known reachability.
const simpleSrc = `
device Unit
features
  alive: out data port bool default true;
end Unit;

device implementation Unit.Imp
modes
  run: initial mode;
end Unit.Imp;

system S
end S;

system implementation S.Imp
subcomponents
  u: device Unit.Imp;
end S.Imp;

error model Fail
states
  ok: initial state;
  dead: state;
end Fail;

error model implementation Fail.Imp
events
  die: error event occurrence poisson 0.1;
transitions
  ok -[die]-> dead;
end Fail.Imp;

root S.Imp;

extend u with Fail.Imp {
  inject dead: alive := false;
}
`

func TestLoadAndAnalyze(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if m.NumProcesses() != 2 { // unit process + error process
		t.Errorf("NumProcesses = %d, want 2", m.NumProcesses())
	}
	rep, err := m.Analyze(Options{
		Goal:    "not u.alive",
		Bound:   10,
		Delta:   0.05,
		Epsilon: 0.02,
		Seed:    3,
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	want := 1 - math.Exp(-0.1*10)
	if math.Abs(rep.Probability-want) > 0.03 {
		t.Errorf("P = %v, want %v ± 0.03", rep.Probability, want)
	}
}

func TestAnalyzeDefaults(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Loosen epsilon via explicit value but leave everything else at
	// defaults to exercise the default paths (progressive, chernoff,
	// seed 1).
	rep, err := m.Analyze(Options{Goal: "not u.alive", Bound: 5, Epsilon: 0.05})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Strategy != "progressive" {
		t.Errorf("default strategy = %q, want progressive", rep.Strategy)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Bound: 1},                     // no goal
		{Goal: "ghost.port", Bound: 1}, // unknown name
		{Goal: "not u.alive", Bound: 1, Strategy: "zzz"}, // bad strategy
		{Goal: "not u.alive", Bound: 1, Method: "zzz"},   // bad method
		{Goal: "not u.alive", Bound: 1, OnLock: "zzz"},   // bad lock policy
		{Goal: "not u.alive", Bound: 1, Kind: "zzz"},     // bad kind
		{Goal: "not u.alive", Bound: 1, Kind: Until},     // until without constraint
		{Goal: "u.alive + 1", Bound: 1},                  // non-Boolean goal
	}
	for i, opts := range cases {
		if _, err := m.Analyze(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestUntilAndInvariance(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Analyze(Options{
		Kind: Invariance, Goal: "u.alive", Bound: 10, Epsilon: 0.03, Seed: 5,
	})
	if err != nil {
		t.Fatalf("Analyze(always): %v", err)
	}
	want := math.Exp(-0.1 * 10)
	if math.Abs(rep.Probability-want) > 0.05 {
		t.Errorf("always: P = %v, want %v", rep.Probability, want)
	}

	rep, err = m.Analyze(Options{
		Kind: Until, Constraint: "u.alive", Goal: "not u.alive", Bound: 10, Epsilon: 0.03, Seed: 5,
	})
	if err != nil {
		t.Fatalf("Analyze(until): %v", err)
	}
	wantU := 1 - math.Exp(-0.1*10)
	if math.Abs(rep.Probability-wantU) > 0.05 {
		t.Errorf("until: P = %v, want %v", rep.Probability, wantU)
	}
}

func TestCheckCTMC(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.CheckCTMC("not u.alive", 10, 0)
	if err != nil {
		t.Fatalf("CheckCTMC: %v", err)
	}
	want := 1 - math.Exp(-0.1*10)
	if math.Abs(rep.Probability-want) > 1e-8 {
		t.Errorf("P = %v, want %v", rep.Probability, want)
	}
	if rep.States < 2 || rep.LumpedStates > rep.States {
		t.Errorf("state counts look wrong: %+v", rep)
	}
}

// TestCheckCTMCConcurrent runs quotient and explicit CheckCTMC calls on one
// Model from several goroutines at once: the symmetry reduction the model
// detects on first use is shared by all of them, and every report must
// equal the one a sequential call on a fresh model gives.
func TestCheckCTMCConcurrent(t *testing.T) {
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(4))
	if err != nil {
		t.Fatal(err)
	}
	// counts drops the timings, which differ from run to run.
	counts := func(rep CTMCReport) CTMCReport {
		rep.BuildTime, rep.LumpTime, rep.SolveTime = 0, 0, 0
		return rep
	}
	flows := [][]CTMCOption{nil, {WithoutSymmetry()}}
	want := make([]CTMCReport, len(flows))
	for i, opts := range flows {
		fresh, err := LoadModel(src)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fresh.CheckCTMC(casestudy.SensorFilterGoal, 100, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = counts(rep)
	}
	if want[0].Symmetry == nil || want[1].Symmetry != nil {
		t.Fatalf("symmetry engaged: quotient %v, explicit %v", want[0].Symmetry, want[1].Symmetry)
	}
	m, err := LoadModel(src)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([]CTMCReport, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = m.CheckCTMC(casestudy.SensorFilterGoal, 100, 0, flows[g%len(flows)]...)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if rep, w := counts(got[g]), want[g%len(flows)]; !reflect.DeepEqual(rep, w) {
			t.Errorf("caller %d: report %+v, want %+v", g, rep, w)
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel("not a model"); err == nil {
		t.Error("garbage should not parse")
	}
	if _, err := LoadModelFile("/nonexistent/file.slim"); err == nil {
		t.Error("missing file should fail")
	}
	// Parse error carries a position.
	_, err := LoadModel("system A\nfeatures\n  $bad\nend A;\nroot A.I;")
	if err == nil || !strings.Contains(err.Error(), "3:") {
		t.Errorf("error should carry line info, got %v", err)
	}
}

func TestSimulateTraces(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := m.Simulate(Options{Goal: "not u.alive", Bound: 10, Strategy: "asap", Seed: 4}, 5)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(traces) != 5 {
		t.Fatalf("traces = %d, want 5", len(traces))
	}
	for i, tr := range traces {
		if tr.Termination == "" {
			t.Errorf("trace %d has no termination", i)
		}
		if len(tr.Events) == 0 {
			t.Errorf("trace %d has no events", i)
		}
		// A satisfied path must end before (or at) the bound.
		if tr.Satisfied && tr.EndTime > 10 {
			t.Errorf("trace %d satisfied at t=%v past the bound", i, tr.EndTime)
		}
	}
	if _, err := m.Simulate(Options{Goal: "not u.alive", Bound: 10}, 0); err == nil {
		t.Error("zero paths should be rejected")
	}
}

func TestSimulateInteractive(t *testing.T) {
	// A purely timed model so the callback fully controls the path.
	const timedSrc = `
system T
features
  done: out data port bool default false;
end T;
system implementation T.Imp
subcomponents
  x: data clock;
modes
  wait: initial mode while x <= 10.0;
  fin: mode;
transitions
  wait -[when x >= 2.0 then done := true]-> fin;
end T.Imp;
root T.Imp;
`
	m, err := LoadModel(timedSrc)
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	tr, err := m.SimulateInteractive(Options{Goal: "done", Bound: 100}, func(p Prompt) (Decision, error) {
		asked++
		if len(p.Moves) != 1 {
			t.Fatalf("prompt moves = %d, want 1", len(p.Moves))
		}
		if !strings.Contains(p.Moves[0].Window, "2") {
			t.Errorf("window %q should mention the guard bound 2", p.Moves[0].Window)
		}
		if got, want := p.Moves[0].Label, "root: wait -> fin"; got != want {
			t.Errorf("prompt label = %q, want %q", got, want)
		}
		return Decision{Delay: 3, Move: 0}, nil
	})
	if err != nil {
		t.Fatalf("SimulateInteractive: %v", err)
	}
	if asked == 0 {
		t.Fatal("callback never consulted")
	}
	if !tr.Satisfied || tr.EndTime != 3 {
		t.Errorf("trace = %+v, want satisfied at t=3", tr)
	}
	// The fired move carries the same label as the prompt offered.
	if want := "fire  root: wait -> fin"; len(tr.Events) != 3 || !strings.HasSuffix(tr.Events[1], want) {
		t.Errorf("events = %q, want the move fired as %q", tr.Events, want)
	}
	if _, err := m.SimulateInteractive(Options{Goal: "done", Bound: 1}, nil); err == nil {
		t.Error("nil callback should be rejected")
	}
}

func TestPatternOption(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Analyze(Options{
		Pattern: "P(<> [0,10] not u.alive)",
		Epsilon: 0.03, Seed: 6,
	})
	if err != nil {
		t.Fatalf("Analyze(pattern): %v", err)
	}
	want := 1 - math.Exp(-0.1*10)
	if math.Abs(rep.Probability-want) > 0.05 {
		t.Errorf("pattern P = %v, want %v", rep.Probability, want)
	}
	if _, err := m.Analyze(Options{Pattern: "P(nonsense)"}); err == nil {
		t.Error("bad pattern should be rejected")
	}
	// Until via pattern.
	rep, err = m.Analyze(Options{
		Pattern: "P(u.alive U [0,10] not u.alive)",
		Epsilon: 0.03, Seed: 6,
	})
	if err != nil {
		t.Fatalf("Analyze(until pattern): %v", err)
	}
	if math.Abs(rep.Probability-want) > 0.05 {
		t.Errorf("until pattern P = %v, want %v", rep.Probability, want)
	}
}

// valueSemanticsRepros are the regression-corpus models whose guards or
// goals read integers only: x / 2 with x = 7 is 3 under integer division,
// and y != 0 and 10 / y > 1 with y = 0 is false by short-circuit.
var valueSemanticsRepros = []string{
	"int-div-guard.slim",
	"int-div-guard-le.slim",
	"int-div-goal.slim",
	"short-circuit-guard.slim",
}

// readReproHeader returns the goal and bound recorded in a regression-corpus
// reproducer's comment header.
func readReproHeader(t *testing.T, src string) (goal string, bound float64) {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		if v, ok := strings.CutPrefix(line, "-- goal: "); ok {
			goal = v
		}
		if v, ok := strings.CutPrefix(line, "-- bound: "); ok {
			var err error
			if bound, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if goal == "" || bound <= 0 {
		t.Fatal("reproducer header lacks goal or bound")
	}
	return goal, bound
}

// TestGuardsUseValueSemantics holds Monte Carlo to the exact engine on
// guards and goals that read no clock: every strategy, with and without
// dead-transition pruning, must sample the 0/1 probability CheckCTMC
// computes, and the static fast path, when it decides, must agree too.
func TestGuardsUseValueSemantics(t *testing.T) {
	for _, name := range valueSemanticsRepros {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("internal", "difftest", "corpus", name))
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			goal, bound := readReproHeader(t, src)
			for _, load := range [][]LoadOption{nil, {WithoutPruning()}} {
				m, err := LoadModel(src, load...)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := m.CheckCTMC(goal, bound, 0)
				if err != nil {
					t.Fatalf("CheckCTMC: %v", err)
				}
				if exact.Probability != 0 && exact.Probability != 1 {
					t.Fatalf("CheckCTMC P = %v, want 0 or 1", exact.Probability)
				}
				opts := Options{Goal: goal, Bound: bound, Epsilon: 0.05, Workers: 1}
				static, err := m.CheckStatic(opts)
				if err != nil {
					t.Fatalf("CheckStatic: %v", err)
				}
				if static.Decided && static.Probability != exact.Probability {
					t.Errorf("static verdict P = %v, CheckCTMC P = %v", static.Probability, exact.Probability)
				}
				for _, strat := range []string{"asap", "maxtime", "progressive", "local"} {
					opts.Strategy = strat
					rep, err := m.Analyze(opts)
					if err != nil {
						t.Fatalf("%s (pruning %v): %v", strat, load == nil, err)
					}
					if rep.Probability != exact.Probability {
						t.Errorf("%s (pruning %v): Monte Carlo P = %v, CheckCTMC P = %v",
							strat, load == nil, rep.Probability, exact.Probability)
					}
				}
			}
		})
	}
}
