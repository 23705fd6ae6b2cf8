package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slimsim"
	"slimsim/internal/casestudy"
)

// divTrap passes every static check (the type of 1 / input is fine) but
// evaluating the computed port at the initial state divides by zero, which
// the engine classifies as an internal failure: validation admitted a model
// execution cannot handle.
const divTrap = `system Div
features
  input: in data port int default 0;
  output: out data port int := 1 / input;
end Div;

system implementation Div.Imp
modes
  run: initial mode;
end Div.Imp;

system Main
end Main;

system implementation Main.Imp
subcomponents
  d: system Div.Imp;
end Main.Imp;

root Main.Imp;
`

// TestEngineErrorExitCode checks that a model tripping an engine-internal
// error maps to exit code 2, distinguishable from ordinary failures.
func TestEngineErrorExitCode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.slim")
	if err := os.WriteFile(path, []byte(divTrap), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-model", path, "-goal", "d.output > 0", "-bound", "10", "-q"})
	if err == nil {
		t.Fatal("run succeeded on a model whose flow divides by zero")
	}
	if !errors.Is(err, slimsim.ErrEngine) {
		t.Fatalf("error %v is not ErrEngine", err)
	}
	if got := slimsim.ExitCode(err); got != 2 {
		t.Fatalf("ExitCode = %d, want 2 for %v", got, err)
	}
}

// TestUsageErrorExitCode checks that ordinary failures keep exit code 1.
func TestUsageErrorExitCode(t *testing.T) {
	err := run([]string{"-model", "does-not-exist.slim"})
	if err == nil {
		t.Fatal("run succeeded without -goal/-bound")
	}
	if got := slimsim.ExitCode(err); got != 1 {
		t.Fatalf("ExitCode = %d, want 1 for %v", got, err)
	}
}

// gateModel is a deterministic single-clock model with a known closed-form
// answer of 1: the gate opens the alarm latch exactly at time 1, so the
// goal is certainly reached within bound 2.
const gateModel = `system Main
end Main;

system implementation Main.Imp
subcomponents
  x: data clock;
  done: data bool default false;
modes
  wait: initial mode while x <= 1.0;
  open: mode;
transitions
  wait -[when x >= 1.0 then done := true]-> open;
end Main.Imp;

root Main.Imp;
`

// TestExactZoneFlag runs the -exact pipeline end to end on a single-clock
// model the default CTMC pipeline cannot handle.
func TestExactZoneFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gate.slim")
	if err := os.WriteFile(path, []byte(gateModel), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exact", "-model", path, "-goal", "done", "-bound", "2", "-q"}); err != nil {
		t.Fatalf("-exact on a single-clock model: %v", err)
	}
	// The untimed pipeline must still reject the clock, with exit code 1.
	err := run([]string{"-model", path, "-goal", "done", "-bound", "2", "-q"})
	if err == nil {
		t.Fatal("CTMC pipeline accepted a timed model")
	}
	if got := slimsim.ExitCode(err); got != 1 {
		t.Fatalf("ExitCode = %d, want 1 for %v", got, err)
	}
}

// TestExactIneligibleExitCode checks that -exact classifies models outside
// the single-clock fragment as ordinary model errors (exit code 1).
func TestExactIneligibleExitCode(t *testing.T) {
	const twoClocks = `system Main
end Main;

system implementation Main.Imp
subcomponents
  x: data clock;
  y: data clock;
  done: data bool default false;
modes
  wait: initial mode while x <= 1.0;
  open: mode;
transitions
  wait -[when x >= 1.0 and y >= 0.5 then done := true]-> open;
end Main.Imp;

root Main.Imp;
`
	path := filepath.Join(t.TempDir(), "two.slim")
	if err := os.WriteFile(path, []byte(twoClocks), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-exact", "-model", path, "-goal", "done", "-bound", "2", "-q"})
	if err == nil {
		t.Fatal("-exact accepted a two-clock model")
	}
	if !errors.Is(err, slimsim.ErrZoneIneligible) {
		t.Fatalf("error %v is not ErrZoneIneligible", err)
	}
	if got := slimsim.ExitCode(err); got != 1 {
		t.Fatalf("ExitCode = %d, want 1 for %v", got, err)
	}
}

// writeSensorFilter materializes the generated sensor-filter model at size n.
func writeSensorFilter(t *testing.T, n int) string {
	t.Helper()
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sensorfilter.slim")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExactUntimedUsesCTMC checks that -exact on an untimed model routes to
// the (symmetry-reduced) CTMC pipeline instead of the zone analyzer — at
// N=10 the explicit product has 4^10-1 states, far over the tiny cap given
// here, so success proves the counter abstraction engaged.
func TestExactUntimedUsesCTMC(t *testing.T) {
	path := writeSensorFilter(t, 10)
	err := run([]string{"-exact", "-model", path, "-goal", casestudy.SensorFilterGoal,
		"-bound", "150", "-max-states", "4096", "-q"})
	if err != nil {
		t.Fatalf("-exact on untimed sensor-filter N=10: %v", err)
	}
}

// TestNoSymmetryOverflowSurfacing checks that -no-symmetry forces the
// explicit build (which must then overflow the same cap) and that the
// overflow is reported as an ordinary resource error, not an
// engine-internal one.
func TestNoSymmetryOverflowSurfacing(t *testing.T) {
	path := writeSensorFilter(t, 10)
	err := run([]string{"-exact", "-no-symmetry", "-model", path, "-goal", casestudy.SensorFilterGoal,
		"-bound", "150", "-max-states", "4096", "-q"})
	if err == nil {
		t.Fatal("explicit build of 4^10 states fit in 4096")
	}
	if !strings.Contains(err.Error(), "-max-states") {
		t.Fatalf("overflow not surfaced with guidance: %v", err)
	}
	if got := slimsim.ExitCode(err); got != 1 {
		t.Fatalf("ExitCode = %d, want 1 for %v", got, err)
	}
}

// TestBoundValidation: -bound must be positive and finite, and a finite
// bound too large to solve is an error rather than a silent 0.
func TestBoundValidation(t *testing.T) {
	path := writeSensorFilter(t, 2)
	for _, tc := range []struct{ bound, want string }{
		{"NaN", "positive, finite -bound"},
		{"Inf", "positive, finite -bound"},
		{"-Inf", "positive, finite -bound"},
		{"0", "positive, finite -bound"},
		{"1e19", "uniformization of λ·t"},
	} {
		err := run([]string{"-model", path, "-goal", casestudy.SensorFilterGoal, "-bound", tc.bound, "-q"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-bound %s: error %v, want one containing %q", tc.bound, err, tc.want)
			continue
		}
		if got := slimsim.ExitCode(err); got != 1 {
			t.Errorf("-bound %s: ExitCode = %d, want 1 for %v", tc.bound, got, err)
		}
	}
}
