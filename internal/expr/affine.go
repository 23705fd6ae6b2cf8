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
// so CompileAffine and CompileWindow evaluate it with the exact value
// semantics of Compile: integer division and mod, short-circuit and/or,
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

// stopsConnective reports whether the left window l alone decides the
// connective op: an empty left operand of and, a full one of or.
func stopsConnective(op Op, l intervals.Set) bool {
	if op == OpAnd {
		return l.Empty()
	}
	return l.Full()
}

// solveSign returns the set of d where f(d) OP 0 holds, built in a.
func solveSign(f Affine, op Op, a *intervals.Arena) intervals.Set {
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
		return a.Of(intervals.Point(root))
	case OpNe:
		return a.Complement(a.Of(intervals.Point(root)))
	case OpLt:
		if increasing {
			return a.Of(intervals.LessThan(root))
		}
		return a.Of(intervals.GreaterThan(root))
	case OpLe:
		if increasing {
			return a.Of(intervals.AtMost(root))
		}
		return a.Of(intervals.AtLeast(root))
	case OpGt:
		if increasing {
			return a.Of(intervals.GreaterThan(root))
		}
		return a.Of(intervals.LessThan(root))
	case OpGe:
		if increasing {
			return a.Of(intervals.AtLeast(root))
		}
		return a.Of(intervals.AtMost(root))
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
