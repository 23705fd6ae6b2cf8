package slimsim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"slimsim/internal/stats"
)

// launcherGoal is the Fig. 5 property goal: both thrusters unpowered.
const launcherGoal = "not thr1.powered and not thr2.powered"

func launcherModel(t *testing.T) *Model {
	t.Helper()
	m, err := LoadModelFile("examples/launcher/launcher.slim")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sweepWithReport runs AnalyzeSweep with telemetry and returns the report
// and its JSON run report, with the run-dependent part removed: the
// wall-clock timing.
func sweepWithReport(t *testing.T, m *Model, opts Options, bounds []float64) (SweepReport, []byte) {
	t.Helper()
	opts.Telemetry = NewTelemetry(TelemetryInfo{Tool: "slimsim"})
	rep, err := m.AnalyzeSweep(opts, bounds)
	if err != nil {
		t.Fatalf("AnalyzeSweep(%+v): %v", opts, err)
	}
	out := opts.Telemetry.Report()
	out.Timing = nil
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rep.Elapsed = 0
	return rep, data
}

// TestAnalyzeSweepPatternAtHorizon: a sweep given as a -prop pattern runs
// and reports exactly like the same sweep given as a goal. The pattern's
// own bound is replaced by the horizon, in the paths and in the rendered
// property alike.
func TestAnalyzeSweepPatternAtHorizon(t *testing.T) {
	m := launcherModel(t)
	bounds := []float64{200, 400}
	base := Options{Strategy: "asap", Epsilon: 0.1, Workers: 2}
	byPattern, byGoal := base, base
	byPattern.Pattern = "P(<> [0,5] " + launcherGoal + ")"
	byGoal.Goal = launcherGoal
	pRep, pJSON := sweepWithReport(t, m, byPattern, bounds)
	gRep, gJSON := sweepWithReport(t, m, byGoal, bounds)
	var doc struct{ Property string }
	if err := json.Unmarshal(pJSON, &doc); err != nil {
		t.Fatal(err)
	}
	if want := "P(<> [0,400] " + launcherGoal + ")"; doc.Property != want {
		t.Errorf("pattern sweep reports property %q, want %q", doc.Property, want)
	}
	if !bytes.Equal(pJSON, gJSON) {
		t.Errorf("pattern and goal sweeps wrote different reports:\n--- pattern\n%s\n--- goal\n%s", pJSON, gJSON)
	}
	if !reflect.DeepEqual(pRep, gRep) {
		t.Errorf("pattern sweep %+v, goal sweep %+v", pRep, gRep)
	}
}

// TestAnalyzeEveryBound: a single-bound run is a one-cell sweep, and it
// still accepts every bound Property.Validate does, +Inf included.
func TestAnalyzeEveryBound(t *testing.T) {
	m := launcherModel(t)
	for _, opts := range []Options{
		{Goal: "true", Bound: 0},
		{Goal: "true", Bound: math.Inf(1)},
		{Pattern: "P(<> [0,inf] true)"},
	} {
		opts.Epsilon = 0.2
		rep, err := m.Analyze(opts)
		if err != nil {
			t.Errorf("Analyze(%+v): %v", opts, err)
			continue
		}
		if rep.Probability != 1 || rep.Paths != 47 {
			t.Errorf("Analyze(%+v): P = %v from %d paths, want 1 from 47", opts, rep.Probability, rep.Paths)
		}
	}
}

// TestRelativeSweepHorizonMatchesAnalyze: with the relative-error rule
// every cell stops by its own rule, and the horizon cell is still
// bit-identical to a single-bound relative-error run at the horizon.
func TestRelativeSweepHorizonMatchesAnalyze(t *testing.T) {
	m, err := LoadModel(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []float64{2, 5, 10}
	for _, workers := range []int{1, 3} {
		opts := Options{Goal: "not u.alive", RelErr: 0.1, Workers: workers, Seed: 4}
		sweep, err := m.AnalyzeSweep(opts, bounds)
		if err != nil {
			t.Fatalf("workers=%d: AnalyzeSweep: %v", workers, err)
		}
		opts.Bound = bounds[len(bounds)-1]
		single, err := m.Analyze(opts)
		if err != nil {
			t.Fatalf("workers=%d: Analyze: %v", workers, err)
		}
		horizon := sweep.Cells[len(sweep.Cells)-1]
		if horizon.Estimate != single.Estimate || single.Method != stats.MethodRelative {
			t.Errorf("workers=%d: horizon cell %+v, single-bound %s run %+v",
				workers, horizon.Estimate, single.Method, single.Estimate)
		}
		// The rarer event at the smallest bound needs more paths for the
		// same relative error.
		if sweep.Cells[0].Paths <= horizon.Paths {
			t.Errorf("workers=%d: cell u=%g stopped after %d paths, horizon after %d",
				workers, bounds[0], sweep.Cells[0].Paths, horizon.Paths)
		}
	}
}
