package sim

import (
	"math"
	"strings"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/strategy"
)

// consulted wraps a strategy and counts its decisions.
type consulted struct {
	strategy.Strategy
	calls int
}

func (c *consulted) Choose(ctx *strategy.Context) (strategy.Choice, error) {
	c.calls++
	return c.Strategy.Choose(ctx)
}

// fiveStrategies returns the four automated strategies and an Input
// strategy that waits delay and lets the engine pick a move.
func fiveStrategies(delay float64) []strategy.Strategy {
	input := strategy.Input{Ask: func(*strategy.Context) (float64, int, error) { return delay, -1, nil }}
	return []strategy.Strategy{strategy.ASAP{}, strategy.Progressive{}, strategy.Local{}, strategy.MaxTime{}, input}
}

// TestTimelockWhenNoWindows: the only guard is enabled for x ∈ [60, 70],
// but the invariant stops time at x = 50. Under every strategy the engine
// sees that no window is open, waits out the invariant without consulting
// the strategy and ends the path as a timelock.
func TestTimelockWhenNoWindows(t *testing.T) {
	rt := windowNet(t, 60, 70, 50)
	for _, s := range fiveStrategies(1) {
		c := &consulted{Strategy: s}
		eng, err := NewEngine(rt, Config{Strategy: c, Property: prop.Reach(100, doneRef())})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.SamplePath(rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Satisfied || res.Termination != TermTimelock || res.EndTime != 50 || res.Steps != 1 {
			t.Errorf("%s: %+v, want a violated timelock at the invariant bound 50 after one step", s.Name(), res)
		}
		if c.calls != 0 {
			t.Errorf("%s was consulted %d times on a path with no open window", s.Name(), c.calls)
		}
	}
}

// TestUnboundedInvariantUsesHorizon: no invariant and a guard that is never
// enabled. Time diverges with no event, so the engine waits one unit past
// the property horizon and the bounded property decides at its bound.
func TestUnboundedInvariantUsesHorizon(t *testing.T) {
	rt := windowNet(t, 70, 60, math.Inf(1))
	for _, s := range fiveStrategies(1) {
		c := &consulted{Strategy: s}
		eng, err := NewEngine(rt, Config{Strategy: c, Property: prop.Reach(10, doneRef())})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.SamplePath(rng.New(3))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Satisfied || res.Termination != TermDecided || res.DecidedAt != 10 || res.EndTime != 11 {
			t.Errorf("%s: %+v, want violated at the bound 10 after waiting to 11", s.Name(), res)
		}
		if c.calls != 0 {
			t.Errorf("%s was consulted %d times on a path with no open window", s.Name(), c.calls)
		}
	}
}

// TestInfiniteBound: under a property bound of +Inf, in a location without
// invariant, every path either ends at a finite time or fails with an
// error that names the infinite bound.
func TestInfiniteBound(t *testing.T) {
	inf := math.Inf(1)
	xGE3 := expr.Bin(expr.OpGe, expr.Var("x", 0), expr.Literal(expr.RealVal(3)))
	for _, tc := range []struct {
		name     string
		lo, hi   float64
		goal     expr.Expr
		strategy strategy.Strategy
		// want is the result; an empty wantErr means no error.
		want    PathResult
		wantErr string
	}{
		{"asap", 1, inf, doneRef(), strategy.ASAP{}, PathResult{Satisfied: true, Termination: TermDecided, EndTime: 1, DecidedAt: 1}, ""},
		{"input", 1, inf, doneRef(), fiveStrategies(2)[4], PathResult{Satisfied: true, Termination: TermDecided, EndTime: 2, DecidedAt: 2}, ""},
		{"maxtime", 1, inf, doneRef(), strategy.MaxTime{}, PathResult{}, "bound is +Inf"},
		{"local", 1, inf, doneRef(), strategy.Local{}, PathResult{}, "bound is +Inf"},
		{"progressive", 1, inf, doneRef(), strategy.Progressive{}, PathResult{}, "bound is +Inf"},
		{"input/inf", 1, inf, doneRef(), fiveStrategies(inf)[4], PathResult{}, "finite"},
		// Progressive samples a bounded window even without a bound.
		{"progressive/bounded", 1, 2, doneRef(), strategy.Progressive{}, PathResult{Satisfied: true, Termination: TermDecided}, ""},
		// Nothing can ever fire: the path stops where it is.
		{"never", 70, 60, doneRef(), strategy.MaxTime{}, PathResult{Termination: TermDeadlock}, ""},
		// ... unless the goal becomes true as time passes.
		{"never/clock-goal", 70, 60, xGE3, strategy.MaxTime{}, PathResult{Satisfied: true, Termination: TermDecided, EndTime: 3, DecidedAt: 3}, ""},
	} {
		eng, err := NewEngine(windowNet(t, tc.lo, tc.hi, inf), Config{Strategy: tc.strategy, Property: prop.Reach(inf, tc.goal)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.SamplePath(rng.New(5))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: got %+v, %v; want an error naming %q", tc.name, res, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.want.EndTime == 0 && tc.want.Termination == TermDecided {
			// A sampled end time: only its range is known.
			if res.EndTime < tc.lo || res.EndTime > tc.hi {
				t.Errorf("%s: ended at %v, want within [%v, %v]", tc.name, res.EndTime, tc.lo, tc.hi)
			}
			tc.want.EndTime, tc.want.DecidedAt = res.EndTime, res.DecidedAt
		}
		res.Steps = 0
		if res != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, res, tc.want)
		}
	}
}
