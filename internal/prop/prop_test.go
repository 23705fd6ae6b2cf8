package prop

import (
	"math"
	"testing"

	"slimsim/internal/expr"
)

// testEnv provides one clock-like variable x with configurable value and
// rate, and one Boolean flag b.
type testEnv struct {
	x    float64
	rate float64
	b    bool
}

func (e *testEnv) VarValue(id expr.VarID) expr.Value {
	if id == 0 {
		return expr.RealVal(e.x)
	}
	return expr.BoolVal(e.b)
}

func (e *testEnv) VarRate(id expr.VarID) float64 {
	if id == 0 {
		return e.rate
	}
	return 0
}

var (
	xRef = expr.Var("x", 0)
	bRef = expr.Var("b", 1)
)

// xTimed classifies x, the only variable with a rate, as timed.
func xTimed(id expr.VarID) bool { return id == 0 }

func geX(c float64) expr.Expr { return expr.Bin(expr.OpGe, xRef, expr.Literal(expr.RealVal(c))) }
func ltX(c float64) expr.Expr { return expr.Bin(expr.OpLt, xRef, expr.Literal(expr.RealVal(c))) }

func TestValidate(t *testing.T) {
	decls := expr.DeclMap{0: expr.ClockType(), 1: expr.BoolType()}
	ok := []Property{
		Reach(10, bRef),
		Always(5, geX(0)),
		UntilWithin(3, ltX(9), bRef),
	}
	for _, p := range ok {
		if err := p.Validate(decls); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", p, err)
		}
	}
	bad := []Property{
		Reach(-1, bRef),
		Reach(10, nil),
		Reach(10, xRef),                     // non-Boolean goal
		{Kind: Until, Bound: 1, Goal: bRef}, // until without constraint
		{Kind: Reachability, Bound: 1, Goal: bRef, Constraint: bRef}, // stray constraint
		{Kind: Kind(9), Bound: 1, Goal: bRef},
	}
	for _, p := range bad {
		if err := p.Validate(decls); err == nil {
			t.Errorf("Validate(%s) should fail", p)
		}
	}
}

func TestAtStateReachability(t *testing.T) {
	ev := NewEvaluator(Reach(10, bRef), xTimed)
	env := &testEnv{}
	v, err := ev.AtState(env, 0)
	if err != nil || v != Undecided {
		t.Errorf("goal false, in bound: (%v,%v), want undecided", v, err)
	}
	env.b = true
	v, _ = ev.AtState(env, 5)
	if v != Satisfied {
		t.Errorf("goal true in bound: %v, want satisfied", v)
	}
	v, _ = ev.AtState(env, 11)
	if v != Violated {
		t.Errorf("past bound: %v, want violated", v)
	}
	// Exactly at the bound counts (inclusive upper bound).
	v, _ = ev.AtState(env, 10)
	if v != Satisfied {
		t.Errorf("at bound with goal true: %v, want satisfied", v)
	}
}

func TestAtStateInvariance(t *testing.T) {
	ev := NewEvaluator(Always(10, bRef), xTimed)
	env := &testEnv{b: true}
	if v, _ := ev.AtState(env, 3); v != Undecided {
		t.Errorf("holding, in bound: %v, want undecided", v)
	}
	env.b = false
	if v, _ := ev.AtState(env, 3); v != Violated {
		t.Errorf("broken in bound: %v, want violated", v)
	}
	if v, _ := ev.AtState(env, 10.5); v != Satisfied {
		t.Errorf("past bound: %v, want satisfied", v)
	}
}

func TestAtStateUntil(t *testing.T) {
	ev := NewEvaluator(UntilWithin(10, ltX(5), bRef), xTimed)
	env := &testEnv{x: 1}
	if v, _ := ev.AtState(env, 0); v != Undecided {
		t.Errorf("constraint holds, goal false: %v, want undecided", v)
	}
	env.b = true
	if v, _ := ev.AtState(env, 1); v != Satisfied {
		t.Errorf("goal true: %v, want satisfied", v)
	}
	env.b = false
	env.x = 7 // constraint broken
	if v, _ := ev.AtState(env, 1); v != Violated {
		t.Errorf("constraint broken before goal: %v, want violated", v)
	}
}

func TestDuringDelayReachability(t *testing.T) {
	// Goal x >= 5 with x starting at 0, rate 1: reached at delay 5.
	ev := NewEvaluator(Reach(10, geX(5)), xTimed)
	env := &testEnv{x: 0, rate: 1}
	v, at, err := ev.DuringDelay(env, 0, 8)
	if err != nil {
		t.Fatalf("DuringDelay: %v", err)
	}
	if v != Satisfied || math.Abs(at-5) > 1e-12 {
		t.Errorf("= (%v,%v), want (satisfied,5)", v, at)
	}

	// Delay too short to reach the goal: undecided.
	v, at, _ = ev.DuringDelay(env, 0, 3)
	if v != Undecided || at != 3 {
		t.Errorf("short delay = (%v,%v), want (undecided,3)", v, at)
	}

	// The goal is reached only after the bound: violated at the bound.
	evTight := NewEvaluator(Reach(4, geX(5)), xTimed)
	v, at, _ = evTight.DuringDelay(env, 0, 8)
	if v != Violated || at != 4 {
		t.Errorf("goal past bound = (%v,%v), want (violated,4)", v, at)
	}

	// Starting mid-path: t=3, delay 4, goal at absolute time 3+2=5.
	env2 := &testEnv{x: 3, rate: 1}
	v, at, _ = ev.DuringDelay(env2, 3, 4)
	if v != Satisfied || math.Abs(at-5) > 1e-12 {
		t.Errorf("mid-path = (%v,%v), want (satisfied,5)", v, at)
	}
}

func TestDuringDelayInvariance(t *testing.T) {
	// Invariant x < 5 with x rising from 0 at rate 1: breaks at 5.
	ev := NewEvaluator(Always(10, ltX(5)), xTimed)
	env := &testEnv{x: 0, rate: 1}
	v, at, err := ev.DuringDelay(env, 0, 8)
	if err != nil {
		t.Fatalf("DuringDelay: %v", err)
	}
	if v != Violated || math.Abs(at-5) > 1e-12 {
		t.Errorf("= (%v,%v), want (violated,5)", v, at)
	}

	// Short delay keeps the invariant: undecided.
	v, _, _ = ev.DuringDelay(env, 0, 2)
	if v != Undecided {
		t.Errorf("short delay = %v, want undecided", v)
	}

	// Surviving past the bound satisfies.
	evShort := NewEvaluator(Always(3, ltX(5)), xTimed)
	v, at, _ = evShort.DuringDelay(env, 0, 4)
	if v != Satisfied || at != 3 {
		t.Errorf("past bound = (%v,%v), want (satisfied,3)", v, at)
	}
}

func TestDuringDelayUntil(t *testing.T) {
	// x rises from 0 at rate 1. Constraint: x < 5; goal: x >= 3.
	// Goal at delay 3 precedes constraint violation at 5: satisfied.
	ev := NewEvaluator(UntilWithin(10, ltX(5), geX(3)), xTimed)
	env := &testEnv{x: 0, rate: 1}
	v, at, err := ev.DuringDelay(env, 0, 8)
	if err != nil {
		t.Fatalf("DuringDelay: %v", err)
	}
	if v != Satisfied || math.Abs(at-3) > 1e-12 {
		t.Errorf("= (%v,%v), want (satisfied,3)", v, at)
	}

	// Constraint x < 2 breaks before goal x >= 3: violated at 2.
	ev2 := NewEvaluator(UntilWithin(10, ltX(2), geX(3)), xTimed)
	v, at, _ = ev2.DuringDelay(env, 0, 8)
	if v != Violated || math.Abs(at-2) > 1e-12 {
		t.Errorf("= (%v,%v), want (violated,2)", v, at)
	}

	// Neither in a short delay: undecided.
	v, _, _ = ev.DuringDelay(env, 0, 1)
	if v != Undecided {
		t.Errorf("short = %v, want undecided", v)
	}

	// Bound exceeded without goal: violated.
	ev3 := NewEvaluator(UntilWithin(2, ltX(50), geX(30)), xTimed)
	v, at, _ = ev3.DuringDelay(env, 0, 8)
	if v != Violated || at != 2 {
		t.Errorf("= (%v,%v), want (violated,2)", v, at)
	}
}

func TestAtPathEnd(t *testing.T) {
	env := &testEnv{b: true}
	if v, _ := NewEvaluator(Reach(10, bRef), xTimed).AtPathEnd(env, 4); v != Violated {
		t.Errorf("reachability at deadlock = %v, want violated", v)
	}
	if v, _ := NewEvaluator(UntilWithin(10, bRef, bRef), xTimed).AtPathEnd(env, 4); v != Violated {
		t.Errorf("until at deadlock = %v, want violated", v)
	}
	if v, _ := NewEvaluator(Always(10, bRef), xTimed).AtPathEnd(env, 4); v != Satisfied {
		t.Errorf("invariance holding at deadlock = %v, want satisfied", v)
	}
	env.b = false
	if v, _ := NewEvaluator(Always(10, bRef), xTimed).AtPathEnd(env, 4); v != Violated {
		t.Errorf("invariance broken at deadlock = %v, want violated", v)
	}
}

func TestNegativeDelayRejected(t *testing.T) {
	ev := NewEvaluator(Reach(10, bRef), xTimed)
	if _, _, err := ev.DuringDelay(&testEnv{}, 0, -1); err == nil {
		t.Error("expected error for negative delay")
	}
}

func TestStringRendering(t *testing.T) {
	p := Reach(3600, bRef)
	if got := p.String(); got != "P(<> [0,3600] b)" {
		t.Errorf("String = %q", got)
	}
	if got := Always(5, bRef).String(); got != "P([] [0,5] b)" {
		t.Errorf("String = %q", got)
	}
	if got := UntilWithin(5, bRef, bRef).String(); got != "P(b U [0,5] b)" {
		t.Errorf("String = %q", got)
	}
}
