package expr

import (
	"fmt"
	"math"

	"slimsim/internal/intervals"
)

// RateEnv extends Env with the time derivative of each variable in the
// current location vector: 1 for clocks, the trajectory coefficient for
// continuous variables, and 0 for discrete variables.
type RateEnv interface {
	Env
	// VarRate returns d(var)/dt in the current locations.
	VarRate(id VarID) float64
}

// Affine is a value that depends affinely on the elapsed delay d:
// value(d) = A + B·d.
type Affine struct {
	A, B float64
}

// At returns the affine function's value after delay d.
func (a Affine) At(d float64) float64 { return a.A + a.B*d }

// Constant reports whether the value does not change with time.
func (a Affine) Constant() bool { return a.B == 0 }

// ErrNonLinear is wrapped by errors reporting expressions whose value is
// not affine in the delay (e.g. products of two continuous variables).
type nonLinearError struct {
	expr Expr
}

func (e *nonLinearError) Error() string {
	return fmt.Sprintf("expr: %s is not linear in time", e.expr)
}

// Timed classifies variables for delay analysis: it reports whether a
// variable's value can change while time passes. A variable it rejects
// must have VarRate 0 in every environment the analysis is run with; the
// network runtime classifies clocks, continuous variables with trajectory
// equations and the flows that read them as timed (Runtime.Timed).
//
// A subexpression that reads no timed variable is constant during a delay,
// so EvalAffine, Window and their compiled forms evaluate it with the exact
// value semantics of Eval: integer division and mod, short-circuit and/or,
// and the same errors at the same points. Interval arithmetic is used only
// where a timed variable is read.
type Timed func(VarID) bool

// readsTimed reports whether e references a variable timed accepts.
func readsTimed(e Expr, timed Timed) bool {
	reads := false
	Walk(e, func(n Expr) {
		if r, ok := n.(*Ref); ok && r.ID != NoVar && !reads {
			reads = timed(r.ID)
		}
	})
	return reads
}

// constAffine lifts the value of a delay-constant numeric subexpression.
func constAffine(v Value, err error) (Affine, error) {
	if err != nil {
		return Affine{}, err
	}
	if !v.IsNumeric() {
		return Affine{}, fmt.Errorf("expr: non-numeric value %s in timed context", v)
	}
	return Affine{A: v.AsFloat()}, nil
}

// boolWindow lifts the truth value of a delay-constant guard.
func boolWindow(b bool, err error) (intervals.Set, error) {
	if err != nil {
		return intervals.Set{}, err
	}
	return boolSet(b), nil
}

// EvalAffine computes a numeric expression's value as an affine function of
// the delay d, given current values and rates. Subexpressions that read no
// timed variable are evaluated as values (see Timed). It fails if the
// expression is non-linear in d (the SLIM subset forbids such dynamics) or
// not numeric.
func EvalAffine(e Expr, env RateEnv, timed Timed) (Affine, error) {
	if !readsTimed(e, timed) {
		return constAffine(e.Eval(env))
	}
	switch n := e.(type) {
	case *Ref:
		v := env.VarValue(n.ID)
		if !v.IsNumeric() {
			return Affine{}, fmt.Errorf("expr: non-numeric variable %s in timed context", n.Name)
		}
		return Affine{A: v.AsFloat(), B: env.VarRate(n.ID)}, nil
	case *Unary:
		if n.Op != OpNeg {
			return Affine{}, fmt.Errorf("expr: operator %v in timed numeric context", n.Op)
		}
		x, err := EvalAffine(n.X, env, timed)
		if err != nil {
			return Affine{}, err
		}
		return Affine{A: -x.A, B: -x.B}, nil
	case *Binary:
		return evalAffineBinary(n, env, timed)
	case *Cond:
		return evalAffineCond(n, env, timed)
	default:
		return Affine{}, fmt.Errorf("expr: unsupported node %T in timed context", e)
	}
}

func evalAffineBinary(n *Binary, env RateEnv, timed Timed) (Affine, error) {
	l, err := EvalAffine(n.L, env, timed)
	if err != nil {
		return Affine{}, err
	}
	r, err := EvalAffine(n.R, env, timed)
	if err != nil {
		return Affine{}, err
	}
	return affineArith(n, l, r)
}

// affineArith combines the affine operands of a timed arithmetic node.
func affineArith(n *Binary, l, r Affine) (Affine, error) {
	switch n.Op {
	case OpAdd:
		return Affine{A: l.A + r.A, B: l.B + r.B}, nil
	case OpSub:
		return Affine{A: l.A - r.A, B: l.B - r.B}, nil
	case OpMul:
		switch {
		case l.Constant():
			return Affine{A: l.A * r.A, B: l.A * r.B}, nil
		case r.Constant():
			return Affine{A: l.A * r.A, B: r.A * l.B}, nil
		default:
			return Affine{}, &nonLinearError{expr: n}
		}
	case OpDiv:
		if !r.Constant() {
			return Affine{}, &nonLinearError{expr: n}
		}
		if r.A == 0 {
			return Affine{}, ErrDivisionByZero
		}
		return Affine{A: l.A / r.A, B: l.B / r.A}, nil
	case OpMod:
		if !l.Constant() || !r.Constant() {
			return Affine{}, &nonLinearError{expr: n}
		}
		if r.A == 0 {
			return Affine{}, ErrDivisionByZero
		}
		return Affine{A: math.Mod(l.A, r.A)}, nil
	default:
		return Affine{}, fmt.Errorf("expr: operator %v in timed numeric context", n.Op)
	}
}

// Window computes the set of delays d ∈ (-inf, +inf) at which the Boolean
// expression e holds, assuming variables evolve with the rates in env. The
// caller intersects the result with [0, maxDelay].
//
// A subexpression that reads no timed variable is decided as a Boolean
// (see Timed) and contributes the full or empty set. Comparisons over timed
// variables reduce to sign conditions on affine functions; Boolean
// connectives map to set algebra, and and/or stop at an empty/full left
// window just as evaluation stops at a false/true left operand.
func Window(e Expr, env RateEnv, timed Timed) (intervals.Set, error) {
	if !readsTimed(e, timed) {
		return boolWindow(EvalBool(e, env))
	}
	switch n := e.(type) {
	case *Ref:
		v := env.VarValue(n.ID)
		if v.Kind() != KindBool {
			return intervals.Set{}, fmt.Errorf("expr: non-Boolean variable %s used as guard", n.Name)
		}
		return boolSet(v.Bool()), nil
	case *Unary:
		if n.Op != OpNot {
			return intervals.Set{}, fmt.Errorf("expr: operator %v used as guard", n.Op)
		}
		inner, err := Window(n.X, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		return inner.Complement(), nil
	case *Binary:
		return windowBinary(n, env, timed)
	case *Cond:
		return windowCond(n, env, timed)
	default:
		return intervals.Set{}, fmt.Errorf("expr: unsupported node %T in guard", e)
	}
}

func windowBinary(n *Binary, env RateEnv, timed Timed) (intervals.Set, error) {
	switch n.Op {
	case OpAnd, OpOr:
		l, err := Window(n.L, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		if stopsConnective(n.Op, l) {
			return l, nil
		}
		r, err := Window(n.R, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		if n.Op == OpAnd {
			return l.Intersect(r), nil
		}
		return l.Union(r), nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		// Boolean equality: evaluate both sides as constants.
		if n.Op == OpEq || n.Op == OpNe {
			if s, ok, err := tryBoolComparison(n, env); err != nil {
				return intervals.Set{}, err
			} else if ok {
				return s, nil
			}
		}
		l, err := EvalAffine(n.L, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		r, err := EvalAffine(n.R, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		diff := Affine{A: l.A - r.A, B: l.B - r.B}
		return solveSign(diff, n.Op), nil
	default:
		return intervals.Set{}, fmt.Errorf("expr: operator %v used as guard", n.Op)
	}
}

// stopsConnective reports whether the left window l alone decides the
// connective op: an empty left operand of and, a full one of or.
func stopsConnective(op Op, l intervals.Set) bool {
	if op == OpAnd {
		return l.Empty()
	}
	return l.Full()
}

// tryBoolComparison handles = and != over Boolean subexpressions, which are
// constant during a delay. ok is false when the operands are numeric.
func tryBoolComparison(n *Binary, env RateEnv) (intervals.Set, bool, error) {
	lv, lerr := n.L.Eval(env)
	rv, rerr := n.R.Eval(env)
	if lerr != nil || rerr != nil {
		// Defer errors to the affine path for numeric operands.
		return intervals.Set{}, false, nil
	}
	if lv.Kind() != KindBool && rv.Kind() != KindBool {
		return intervals.Set{}, false, nil
	}
	if lv.Kind() != rv.Kind() {
		return intervals.Set{}, false, fmt.Errorf("expr: comparing %s with %s", lv.Kind(), rv.Kind())
	}
	eq := lv.Equal(rv)
	if n.Op == OpNe {
		eq = !eq
	}
	return boolSet(eq), true, nil
}

// solveSign returns the set of d where f(d) OP 0 holds.
func solveSign(f Affine, op Op) intervals.Set {
	if f.B == 0 {
		holds := false
		switch op {
		case OpEq:
			holds = f.A == 0
		case OpNe:
			holds = f.A != 0
		case OpLt:
			holds = f.A < 0
		case OpLe:
			holds = f.A <= 0
		case OpGt:
			holds = f.A > 0
		case OpGe:
			holds = f.A >= 0
		}
		return boolSet(holds)
	}
	root := -f.A / f.B
	increasing := f.B > 0
	switch op {
	case OpEq:
		return intervals.FromInterval(intervals.Point(root))
	case OpNe:
		return intervals.FromInterval(intervals.Point(root)).Complement()
	case OpLt:
		if increasing {
			return intervals.FromInterval(intervals.LessThan(root))
		}
		return intervals.FromInterval(intervals.GreaterThan(root))
	case OpLe:
		if increasing {
			return intervals.FromInterval(intervals.AtMost(root))
		}
		return intervals.FromInterval(intervals.AtLeast(root))
	case OpGt:
		if increasing {
			return intervals.FromInterval(intervals.GreaterThan(root))
		}
		return intervals.FromInterval(intervals.LessThan(root))
	case OpGe:
		if increasing {
			return intervals.FromInterval(intervals.AtLeast(root))
		}
		return intervals.FromInterval(intervals.AtMost(root))
	default:
		return intervals.EmptySet()
	}
}

func boolSet(b bool) intervals.Set {
	if b {
		return intervals.FullSet()
	}
	return intervals.EmptySet()
}
