package prop

import (
	"math"
	"math/rand"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/intervals"
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
	v, at, err := ev.DuringDelay(env, nil, 0, 8)
	if err != nil {
		t.Fatalf("DuringDelay: %v", err)
	}
	if v != Satisfied || math.Abs(at-5) > 1e-12 {
		t.Errorf("= (%v,%v), want (satisfied,5)", v, at)
	}

	// Delay too short to reach the goal: undecided.
	v, at, _ = ev.DuringDelay(env, nil, 0, 3)
	if v != Undecided || at != 3 {
		t.Errorf("short delay = (%v,%v), want (undecided,3)", v, at)
	}

	// The goal is reached only after the bound: violated at the bound.
	evTight := NewEvaluator(Reach(4, geX(5)), xTimed)
	v, at, _ = evTight.DuringDelay(env, nil, 0, 8)
	if v != Violated || at != 4 {
		t.Errorf("goal past bound = (%v,%v), want (violated,4)", v, at)
	}

	// Starting mid-path: t=3, delay 4, goal at absolute time 3+2=5.
	env2 := &testEnv{x: 3, rate: 1}
	v, at, _ = ev.DuringDelay(env2, nil, 3, 4)
	if v != Satisfied || math.Abs(at-5) > 1e-12 {
		t.Errorf("mid-path = (%v,%v), want (satisfied,5)", v, at)
	}
}

func TestDuringDelayInvariance(t *testing.T) {
	// Invariant x < 5 with x rising from 0 at rate 1: breaks at 5.
	ev := NewEvaluator(Always(10, ltX(5)), xTimed)
	env := &testEnv{x: 0, rate: 1}
	v, at, err := ev.DuringDelay(env, nil, 0, 8)
	if err != nil {
		t.Fatalf("DuringDelay: %v", err)
	}
	if v != Violated || math.Abs(at-5) > 1e-12 {
		t.Errorf("= (%v,%v), want (violated,5)", v, at)
	}

	// Short delay keeps the invariant: undecided.
	v, _, _ = ev.DuringDelay(env, nil, 0, 2)
	if v != Undecided {
		t.Errorf("short delay = %v, want undecided", v)
	}

	// Surviving past the bound satisfies.
	evShort := NewEvaluator(Always(3, ltX(5)), xTimed)
	v, at, _ = evShort.DuringDelay(env, nil, 0, 4)
	if v != Satisfied || at != 3 {
		t.Errorf("past bound = (%v,%v), want (satisfied,3)", v, at)
	}
}

func TestDuringDelayUntil(t *testing.T) {
	// x rises from 0 at rate 1. Constraint: x < 5; goal: x >= 3.
	// Goal at delay 3 precedes constraint violation at 5: satisfied.
	ev := NewEvaluator(UntilWithin(10, ltX(5), geX(3)), xTimed)
	env := &testEnv{x: 0, rate: 1}
	v, at, err := ev.DuringDelay(env, nil, 0, 8)
	if err != nil {
		t.Fatalf("DuringDelay: %v", err)
	}
	if v != Satisfied || math.Abs(at-3) > 1e-12 {
		t.Errorf("= (%v,%v), want (satisfied,3)", v, at)
	}

	// Constraint x < 2 breaks before goal x >= 3: violated at 2.
	ev2 := NewEvaluator(UntilWithin(10, ltX(2), geX(3)), xTimed)
	v, at, _ = ev2.DuringDelay(env, nil, 0, 8)
	if v != Violated || math.Abs(at-2) > 1e-12 {
		t.Errorf("= (%v,%v), want (violated,2)", v, at)
	}

	// Neither in a short delay: undecided.
	v, _, _ = ev.DuringDelay(env, nil, 0, 1)
	if v != Undecided {
		t.Errorf("short = %v, want undecided", v)
	}

	// Bound exceeded without goal: violated.
	ev3 := NewEvaluator(UntilWithin(2, ltX(50), geX(30)), xTimed)
	v, at, _ = ev3.DuringDelay(env, nil, 0, 8)
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
	if _, _, err := ev.DuringDelay(&testEnv{}, nil, 0, -1); err == nil {
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

// setAlgebraDuringDelay is DuringDelay's invariance and until check as it
// was written with set algebra: the first bad instant is the infimum of
// [0, horizon] minus the window, built with Closed, Complement and
// Intersect. It is the reference TestDuringDelayMatchesSetAlgebra holds the
// in-place reads to.
func setAlgebraDuringDelay(ev *Evaluator, env expr.RateEnv, t, d float64) (Verdict, float64, error) {
	horizon := math.Min(d, ev.prop.Bound-t)
	goalW, err := ev.goalWin(env, nil)
	if err != nil {
		return 0, 0, err
	}
	switch ev.prop.Kind {
	case Invariance:
		if horizon >= 0 && !goalW.Full() {
			window := intervals.FromInterval(intervals.Closed(0, horizon))
			badW := goalW.Intersect(window).Complement().Intersect(window)
			if !badW.Empty() {
				hit, _ := badW.Inf()
				return Violated, t + hit, nil
			}
		}
		if t+d > ev.prop.Bound {
			return Satisfied, ev.prop.Bound, nil
		}
		return Undecided, t + d, nil
	default: // Until
		consW, err := ev.consWin(env, nil)
		if err != nil {
			return 0, 0, err
		}
		goalT := math.Inf(1)
		if horizon >= 0 {
			if hit, ok := goalW.MinIn(0, horizon); ok {
				goalT = hit
			}
		}
		badT := math.Inf(1)
		if horizon >= 0 && !consW.Full() {
			window := intervals.FromInterval(intervals.Closed(0, horizon))
			badW := consW.Complement().Intersect(window)
			if !badW.Empty() {
				badT, _ = badW.Inf()
			}
		}
		switch {
		case goalT <= badT && !math.IsInf(goalT, 1):
			return Satisfied, t + goalT, nil
		case badT < goalT && !math.IsInf(badT, 1):
			return Violated, t + badT, nil
		case t+d > ev.prop.Bound:
			return Violated, ev.prop.Bound, nil
		default:
			return Undecided, t + d, nil
		}
	}
}

// randomWindowExpr returns a random condition on x whose window is a union
// of up to three intervals with random open or closed ends, half-lines,
// punctured lines, the full or the empty set, or a complement of those.
// Endpoints are small integers, so they often meet 0, the horizon and each
// other.
func randomWindowExpr(r *rand.Rand) expr.Expr {
	c := func() expr.Expr { return expr.Literal(expr.RealVal(float64(r.Intn(9)))) }
	lower := func() expr.Expr {
		return expr.Bin([]expr.Op{expr.OpGt, expr.OpGe}[r.Intn(2)], xRef, c())
	}
	upper := func() expr.Expr {
		return expr.Bin([]expr.Op{expr.OpLt, expr.OpLe}[r.Intn(2)], xRef, c())
	}
	var e expr.Expr = expr.False()
	for n := r.Intn(4); n > 0; n-- {
		var term expr.Expr
		switch r.Intn(5) {
		case 0:
			term = lower()
		case 1:
			term = upper()
		case 2:
			term = expr.Bin(expr.OpNe, xRef, c())
		case 3:
			term = expr.True()
		default:
			term = expr.Bin(expr.OpAnd, lower(), upper())
		}
		e = expr.Bin(expr.OpOr, e, term)
	}
	if r.Intn(3) == 0 {
		e = expr.Not(e)
	}
	return e
}

// TestDuringDelayMatchesSetAlgebra: on random timed goals and constraints,
// random trajectories, delays and bounds (zero, finite and infinite),
// invariance and until decide exactly as the set-algebra formula does.
func TestDuringDelayMatchesSetAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pick := func(xs ...float64) float64 { return xs[r.Intn(len(xs))] }
	inf := math.Inf(1)
	var arena intervals.Arena
	for trial := 0; trial < 20000; trial++ {
		bound := pick(0, 2, 5, 10, inf)
		var p Property
		if r.Intn(2) == 0 {
			p = Always(bound, randomWindowExpr(r))
		} else {
			p = UntilWithin(bound, randomWindowExpr(r), randomWindowExpr(r))
		}
		ev := NewEvaluator(p, xTimed)
		env := &testEnv{x: pick(0, 1, 2, 3, 4.5), rate: pick(1, 2, 0.5, -1, 0)}
		now, d := pick(0, 1, 2.5), pick(0, 0.5, 1, 3, 8, inf)
		wantV, wantAt, wantErr := setAlgebraDuringDelay(ev, env, now, d)
		arena.Reset()
		gotV, gotAt, gotErr := ev.DuringDelay(env, &arena, now, d)
		if (wantErr != nil) != (gotErr != nil) || gotV != wantV || math.Float64bits(gotAt) != math.Float64bits(wantAt) {
			t.Fatalf("%s from x=%g rate %g, t=%g, d=%g: DuringDelay = (%v, %g, %v), set algebra (%v, %g, %v)",
				p, env.x, env.rate, now, d, gotV, gotAt, gotErr, wantV, wantAt, wantErr)
		}
	}
}

// TestDuringDelayAllocs: with a warm arena that is reset between delays, a
// delay under a timed invariance or until property allocates nothing.
func TestDuringDelayAllocs(t *testing.T) {
	band := expr.Bin(expr.OpOr, ltX(2), geX(3))
	for _, p := range []Property{Always(10, band), UntilWithin(10, band, geX(7))} {
		ev := NewEvaluator(p, xTimed)
		env := &testEnv{x: 0, rate: 1}
		var arena intervals.Arena
		delay := func() {
			arena.Reset()
			if _, _, err := ev.DuringDelay(env, &arena, 0, 8); err != nil {
				t.Fatal(err)
			}
		}
		delay()
		if n := testing.AllocsPerRun(100, delay); n != 0 {
			t.Errorf("%s: a delay allocates %.1f objects, want 0", p, n)
		}
	}
}
