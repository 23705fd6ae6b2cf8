package slimsim

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// divGuardSrc fires its only move under the guard 7 / x > 3 with x = 0.
const divGuardSrc = `
system M
end M;

system implementation M.Imp
subcomponents
  x: data int default 0;
  done: data bool default false;
modes
  a: initial urgent mode;
  b: mode;
transitions
  a -[when 7 / x > 3 then done := true]-> b;
end M.Imp;

root M.Imp;
`

// TestGuardErrorsClassifiedAlike: a guard that fails to evaluate is an
// engine error with the same text whether Monte Carlo or the explicit CTMC
// builder evaluates it.
func TestGuardErrorsClassifiedAlike(t *testing.T) {
	m, err := LoadModel(divGuardSrc, WithoutPruning())
	if err != nil {
		t.Fatal(err)
	}
	_, simErr := m.Analyze(Options{Goal: "done", Bound: 10, Epsilon: 0.2})
	_, ctmcErr := m.CheckCTMC("done", 10, 1000)
	for name, err := range map[string]error{"Analyze": simErr, "CheckCTMC": ctmcErr} {
		if !errors.Is(err, ErrEngine) || ExitCode(err) != 2 {
			t.Errorf("%s: %v (exit code %d), want an engine error", name, err, ExitCode(err))
		}
	}
	if simErr == nil || ctmcErr == nil || !strings.HasSuffix(simErr.Error(), ctmcErr.Error()) {
		t.Errorf("Analyze fails with %q, CheckCTMC with %q; want the same guard error", simErr, ctmcErr)
	}
}

// lockedSrc deadlocks at once: its urgent initial mode has no enabled move.
const lockedSrc = `
system M
end M;

system implementation M.Imp
subcomponents
  done: data bool default false;
modes
  a: initial urgent mode;
  b: mode;
transitions
  a -[when false then done := true]-> b;
end M.Imp;

root M.Imp;
`

// TestSimulateHonoursLockPolicy: the trace modes resolve the lock policy as
// Analyze does, so a deadlock under OnLock "error" fails all three.
func TestSimulateHonoursLockPolicy(t *testing.T) {
	m, err := LoadModel(lockedSrc, WithoutPruning())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Goal: "done", Bound: 10, Epsilon: 0.2, OnLock: "error"}
	_, analyzeErr := m.Analyze(opts)
	traces, simErr := m.Simulate(opts, 1)
	_, interErr := m.SimulateInteractive(opts, func(Prompt) (Decision, error) { return Decision{Move: -1}, nil })
	for name, err := range map[string]error{"Analyze": analyzeErr, "Simulate": simErr, "SimulateInteractive": interErr} {
		if err == nil || !strings.Contains(err.Error(), "deadlock at time 0") {
			t.Errorf("%s: %v, want the deadlock error", name, err)
		}
	}
	if simErr == nil {
		t.Errorf("Simulate returned %+v", traces)
	}
	opts.OnLock = "bogus"
	if _, err := m.Simulate(opts, 1); err == nil {
		t.Error("Simulate accepted an unknown lock policy")
	}
}

// TestInteractiveDeadlockNeedsNoPrompt: on a path on which no guarded move
// can ever become enabled there is nothing to decide, so the interactive
// mode ends the path as a deadlock without asking.
func TestInteractiveDeadlockNeedsNoPrompt(t *testing.T) {
	m, err := LoadModel(lockedSrc, WithoutPruning())
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	tr, err := m.SimulateInteractive(Options{Goal: "done", Bound: 10}, func(Prompt) (Decision, error) {
		asked++
		return Decision{Move: -1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if asked != 0 || tr.Satisfied || tr.Termination != "deadlock" || tr.EndTime != 0 {
		t.Errorf("after %d prompts: %+v, want an unsatisfied deadlock at t=0 after none", asked, tr)
	}
}

// urgentSrc waits in an urgent mode for a guard over a counter that only
// the guarded move itself changes.
const urgentSrc = `
system M
end M;

system implementation M.Imp
subcomponents
  n: data int [0 .. 4] default 0;
  x: data clock;
modes
  a: initial urgent mode;
  b: mode while x <= 4.0;
  c: mode while x <= 4.0;
transitions
  a -[when n < 2 then n := n + 1]-> a;
  a -[when n >= 2]-> b;
  b -[when x >= 1.0 then n := 3]-> c;
  c -[when x >= 2.0 then n := 4]-> c;
end M.Imp;

root M.Imp;
`

// TestInteractivePromptTimeAndBound: prompts carry the model time, and a
// delay beyond the invariant bound is refused.
func TestInteractivePromptTimeAndBound(t *testing.T) {
	m, err := LoadModel(urgentSrc, WithoutPruning())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Goal: "n = 4", Bound: 100}
	if _, err := m.SimulateInteractive(opts, func(Prompt) (Decision, error) {
		return Decision{Delay: 5, Move: -1}, nil
	}); err == nil || !strings.Contains(err.Error(), "invariant bound") {
		t.Errorf("delay 5 in an urgent mode: %v, want it refused", err)
	}
	var nows []float64
	tr, err := m.SimulateInteractive(opts, func(p Prompt) (Decision, error) {
		nows = append(nows, p.Now)
		if p.MaxDelay == 0 {
			return Decision{Move: -1}, nil
		}
		return Decision{Delay: 1.5, Move: -1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0, 0, 0, 1.5}; !slices.Equal(nows, want) || !tr.Satisfied || tr.EndTime != 3 {
		t.Errorf("prompts at %v, path %+v; want prompts at %v and the goal at t=3", nows, tr, want)
	}
}
