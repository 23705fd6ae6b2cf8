// Package prop defines the time-bounded path properties the simulator
// checks, mirroring the COMPASS specification patterns: probabilistic
// existence P(◇[0,u] φ), probabilistic invariance P(□[0,u] φ), and bounded
// until P(φ U[0,u] ψ).
//
// A property is evaluated along a simulated path. Because SLIM states
// evolve continuously between discrete events, a predicate over clocks or
// continuous variables can change truth value in the middle of a delay; the
// evaluator therefore inspects delays through compiled windows
// (expr.CompileWindow) rather than just sampling endpoints, so e.g.
// ◇[0,10] (energy ≤ 0) is detected even when the simulator takes a single
// 50-time-unit timed step.
package prop

import (
	"fmt"
	"math"

	"slimsim/internal/expr"
	"slimsim/internal/intervals"
)

// Kind enumerates the supported temporal patterns.
type Kind int

// Property kinds.
const (
	// Reachability is P(◇[0,u] Goal): the goal becomes true within the
	// bound (the COMPASS "probabilistic existence" pattern).
	Reachability Kind = iota + 1
	// Invariance is P(□[0,u] Goal): the goal holds throughout the bound
	// (the "probabilistic absence" pattern, applied to ¬Goal).
	Invariance
	// Until is P(Constraint U[0,u] Goal).
	Until
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Reachability:
		return "reachability"
	case Invariance:
		return "invariance"
	case Until:
		return "until"
	default:
		return "invalid"
	}
}

// Property is a time-bounded path formula.
type Property struct {
	// Kind selects the temporal pattern.
	Kind Kind
	// Bound is the upper time bound u (inclusive).
	Bound float64
	// Goal is φ for reachability/invariance and ψ for until.
	Goal expr.Expr
	// Constraint is the left operand of until; nil otherwise.
	Constraint expr.Expr
}

// Reach returns the reachability property ◇[0,u] goal.
func Reach(bound float64, goal expr.Expr) Property {
	return Property{Kind: Reachability, Bound: bound, Goal: goal}
}

// Always returns the invariance property □[0,u] goal.
func Always(bound float64, goal expr.Expr) Property {
	return Property{Kind: Invariance, Bound: bound, Goal: goal}
}

// UntilWithin returns the bounded-until property constraint U[0,u] goal.
func UntilWithin(bound float64, constraint, goal expr.Expr) Property {
	return Property{Kind: Until, Bound: bound, Goal: goal, Constraint: constraint}
}

// Validate checks structural sanity and types against decls.
func (p Property) Validate(decls expr.Decls) error {
	if err := checkBound(p.Bound); err != nil {
		return err
	}
	if p.Goal == nil {
		return fmt.Errorf("prop: missing goal expression")
	}
	if err := expr.CheckBool(p.Goal, decls); err != nil {
		return fmt.Errorf("prop: goal: %w", err)
	}
	if err := expr.TimedLinear(p.Goal, decls); err != nil {
		return fmt.Errorf("prop: goal: %w", err)
	}
	switch p.Kind {
	case Until:
		if p.Constraint == nil {
			return fmt.Errorf("prop: until without constraint")
		}
		if err := expr.CheckBool(p.Constraint, decls); err != nil {
			return fmt.Errorf("prop: constraint: %w", err)
		}
		if err := expr.TimedLinear(p.Constraint, decls); err != nil {
			return fmt.Errorf("prop: constraint: %w", err)
		}
	case Reachability, Invariance:
		if p.Constraint != nil {
			return fmt.Errorf("prop: %s property carries a constraint", p.Kind)
		}
	default:
		return fmt.Errorf("prop: invalid kind %d", p.Kind)
	}
	return nil
}

// checkBound is the range rule for time bounds: non-negative and not NaN.
// +Inf is a valid bound (unbounded reachability).
func checkBound(u float64) error {
	if u < 0 || math.IsNaN(u) {
		return fmt.Errorf("prop: negative or NaN time bound %g", u)
	}
	return nil
}

// String renders the property in CSL-like syntax.
func (p Property) String() string {
	switch p.Kind {
	case Reachability:
		return fmt.Sprintf("P(<> [0,%g] %s)", p.Bound, p.Goal)
	case Invariance:
		return fmt.Sprintf("P([] [0,%g] %s)", p.Bound, p.Goal)
	case Until:
		return fmt.Sprintf("P(%s U [0,%g] %s)", p.Constraint, p.Bound, p.Goal)
	default:
		return "<invalid property>"
	}
}

// Verdict is the outcome of evaluating a property along a (partial) path.
type Verdict int

// Verdicts.
const (
	// Undecided means the path prefix does not determine the outcome.
	Undecided Verdict = iota + 1
	// Satisfied means the property holds on every extension of the
	// prefix.
	Satisfied
	// Violated means the property fails on every extension.
	Violated
)

// String returns the verdict's name.
func (v Verdict) String() string {
	switch v {
	case Undecided:
		return "undecided"
	case Satisfied:
		return "satisfied"
	case Violated:
		return "violated"
	default:
		return "invalid"
	}
}

// Evaluator checks one property along paths. Construction compiles the
// goal and constraint expressions (see expr.Compile); the evaluator itself
// is stateless, so one instance can be shared across paths and worker
// goroutines.
type Evaluator struct {
	prop     Property
	goalBool expr.BoolCode
	goalWin  expr.WindowCode
	consBool expr.BoolCode
	consWin  expr.WindowCode
}

// NewEvaluator returns an evaluator for p. timed classifies the variables
// whose value can change during a delay (see expr.Timed): goal and
// constraint subexpressions that read none of them are decided with value
// semantics, exactly as AtState decides them.
func NewEvaluator(p Property, timed expr.Timed) *Evaluator {
	ev := &Evaluator{prop: p}
	if p.Goal != nil {
		ev.goalBool = expr.CompileBool(p.Goal)
		ev.goalWin = expr.CompileWindow(p.Goal, timed)
	}
	if p.Constraint != nil {
		ev.consBool = expr.CompileBool(p.Constraint)
		ev.consWin = expr.CompileWindow(p.Constraint, timed)
	}
	return ev
}

// Property returns the property under evaluation.
func (ev *Evaluator) Property() Property { return ev.prop }

// AtState evaluates the property at a state reached at time t (the path's
// start or the target of a discrete transition).
func (ev *Evaluator) AtState(env expr.Env, t float64) (Verdict, error) {
	inBound := t <= ev.prop.Bound
	goal, err := ev.goalBool(env)
	if err != nil {
		return 0, fmt.Errorf("prop: evaluating goal: %w", err)
	}
	switch ev.prop.Kind {
	case Reachability:
		if goal && inBound {
			return Satisfied, nil
		}
		if !inBound {
			return Violated, nil
		}
		return Undecided, nil
	case Invariance:
		if !inBound {
			return Satisfied, nil
		}
		if !goal {
			return Violated, nil
		}
		return Undecided, nil
	case Until:
		if goal && inBound {
			return Satisfied, nil
		}
		if !inBound {
			return Violated, nil
		}
		cons, err := ev.consBool(env)
		if err != nil {
			return 0, fmt.Errorf("prop: evaluating constraint: %w", err)
		}
		if !cons {
			return Violated, nil
		}
		return Undecided, nil
	default:
		return 0, fmt.Errorf("prop: invalid kind %d", ev.prop.Kind)
	}
}

// DuringDelay evaluates the property over a timed step of length d starting
// at time t, given the pre-delay environment env (whose rates describe the
// trajectory). If the verdict is decided mid-delay, at is the absolute time
// of the decision; otherwise at is t+d. The goal and constraint windows are
// built in a (nil allocates them); the evaluator keeps none of them.
func (ev *Evaluator) DuringDelay(env expr.RateEnv, a *intervals.Arena, t, d float64) (verdict Verdict, at float64, err error) {
	if d < 0 {
		return 0, 0, fmt.Errorf("prop: negative delay %g", d)
	}
	// Clip the inspection window to the property bound. A negative horizon
	// means the bound already expired: the inspection window is empty.
	horizon := math.Min(d, ev.prop.Bound-t)

	goalW, err := ev.goalWin(env, a)
	if err != nil {
		return 0, 0, fmt.Errorf("prop: goal window: %w", err)
	}

	// The windows are only read below: MinIn and MinOutside find the
	// first instant in [0, horizon] inside and outside a window without
	// building the intersection or difference.
	switch ev.prop.Kind {
	case Reachability:
		if horizon >= 0 {
			if hit, ok := goalW.MinIn(0, horizon); ok {
				return Satisfied, t + hit, nil
			}
		}
		if t+d > ev.prop.Bound {
			return Violated, ev.prop.Bound, nil
		}
		return Undecided, t + d, nil
	case Invariance:
		if horizon >= 0 {
			if hit, ok := goalW.MinOutside(0, horizon); ok {
				return Violated, t + hit, nil
			}
		}
		if t+d > ev.prop.Bound {
			return Satisfied, ev.prop.Bound, nil
		}
		return Undecided, t + d, nil
	case Until:
		consW, cerr := ev.consWin(env, a)
		if cerr != nil {
			return 0, 0, fmt.Errorf("prop: constraint window: %w", cerr)
		}
		goalT := math.Inf(1)
		if horizon >= 0 {
			if hit, ok := goalW.MinIn(0, horizon); ok {
				goalT = hit
			}
		}
		badT := math.Inf(1)
		if horizon >= 0 {
			if hit, ok := consW.MinOutside(0, horizon); ok {
				badT = hit
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
	default:
		return 0, 0, fmt.Errorf("prop: invalid kind %d", ev.prop.Kind)
	}
}

// AtPathEnd resolves the verdict when the path cannot be extended (deadlock
// or timelock at time t): the state is frozen forever, so reachability and
// until fail unless already decided, while invariance holds iff the goal
// holds in the final state (which AtState would have reported as Violated
// otherwise).
func (ev *Evaluator) AtPathEnd(env expr.Env, t float64) (Verdict, error) {
	switch ev.prop.Kind {
	case Reachability, Until:
		return Violated, nil
	case Invariance:
		goal, err := ev.goalBool(env)
		if err != nil {
			return 0, fmt.Errorf("prop: evaluating goal: %w", err)
		}
		if goal {
			return Satisfied, nil
		}
		return Violated, nil
	default:
		return 0, fmt.Errorf("prop: invalid kind %d", ev.prop.Kind)
	}
}
