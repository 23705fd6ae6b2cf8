package expr

import (
	"fmt"

	"slimsim/internal/intervals"
)

// This file keeps a plain tree-walking interpreter as the tests' oracle for
// the compiled programs: refEval for Compile, refEvalBool for CompileBool,
// refAffine for CompileAffine and refWindow for CompileWindow. It walks the
// AST at every call, with no folding and no hoisting, so any divergence of
// the compiled forms — in value, Affine bits, window or error text — shows
// up as a disagreement in TestCompileAgreesWithEval and
// FuzzWindowTimeInvariant.

// refEval computes e's value in env.
func refEval(e Expr, env Env) (Value, error) {
	switch n := e.(type) {
	case *Lit:
		return n.Val, nil
	case *Ref:
		if n.ID == NoVar {
			return Value{}, fmt.Errorf("expr: unresolved reference %q", n.Name)
		}
		return env.VarValue(n.ID), nil
	case *Unary:
		return refUnary(n, env)
	case *Binary:
		return refBinary(n, env)
	case *Cond:
		b, err := refEvalBool(n.If, env)
		if err != nil {
			return Value{}, err
		}
		if b {
			return refEval(n.Then, env)
		}
		return refEval(n.Else, env)
	default:
		return Value{}, fmt.Errorf("expr: unsupported node %T", e)
	}
}

func refUnary(u *Unary, env Env) (Value, error) {
	x, err := refEval(u.X, env)
	if err != nil {
		return Value{}, err
	}
	switch u.Op {
	case OpNot:
		if x.Kind() != KindBool {
			return Value{}, fmt.Errorf("expr: not applied to %s", x.Kind())
		}
		return BoolVal(!x.Bool()), nil
	case OpNeg:
		switch x.Kind() {
		case KindInt:
			return IntVal(-x.Int()), nil
		case KindReal:
			return RealVal(-x.Real()), nil
		default:
			return Value{}, fmt.Errorf("expr: negation applied to %s", x.Kind())
		}
	default:
		return Value{}, fmt.Errorf("expr: invalid unary operator %v", u.Op)
	}
}

func refBinary(b *Binary, env Env) (Value, error) {
	// Short-circuit Boolean connectives.
	switch b.Op {
	case OpAnd, OpOr:
		l, err := refEval(b.L, env)
		if err != nil {
			return Value{}, err
		}
		if l.Kind() != KindBool {
			return Value{}, fmt.Errorf("expr: %v applied to %s", b.Op, l.Kind())
		}
		if b.Op == OpAnd && !l.Bool() {
			return BoolVal(false), nil
		}
		if b.Op == OpOr && l.Bool() {
			return BoolVal(true), nil
		}
		r, err := refEval(b.R, env)
		if err != nil {
			return Value{}, err
		}
		if r.Kind() != KindBool {
			return Value{}, fmt.Errorf("expr: %v applied to %s", b.Op, r.Kind())
		}
		return r, nil
	}

	l, err := refEval(b.L, env)
	if err != nil {
		return Value{}, err
	}
	r, err := refEval(b.R, env)
	if err != nil {
		return Value{}, err
	}

	switch b.Op {
	case OpEq:
		return BoolVal(l.Equal(r)), nil
	case OpNe:
		return BoolVal(!l.Equal(r)), nil
	case OpLt, OpLe, OpGt, OpGe:
		if !l.IsNumeric() || !r.IsNumeric() {
			return Value{}, fmt.Errorf("expr: %v applied to %s and %s", b.Op, l.Kind(), r.Kind())
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch b.Op {
		case OpLt:
			return BoolVal(lf < rf), nil
		case OpLe:
			return BoolVal(lf <= rf), nil
		case OpGt:
			return BoolVal(lf > rf), nil
		default:
			return BoolVal(lf >= rf), nil
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(b.Op, l, r)
	default:
		return Value{}, fmt.Errorf("expr: invalid binary operator %v", b.Op)
	}
}

// refEvalBool evaluates e and asserts a Boolean result.
func refEvalBool(e Expr, env Env) (bool, error) {
	v, err := refEval(e, env)
	if err != nil {
		return false, err
	}
	if v.Kind() != KindBool {
		return false, fmt.Errorf("expr: expected bool, got %s in %s", v.Kind(), e)
	}
	return v.Bool(), nil
}

// refAffine computes a numeric expression's value as an affine function of
// the delay. Subexpressions that read no timed variable are evaluated as
// values.
func refAffine(e Expr, env RateEnv, timed Timed) (Affine, error) {
	if !readsTimed(e, timed) {
		return constAffine(refEval(e, env))
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
		x, err := refAffine(n.X, env, timed)
		if err != nil {
			return Affine{}, err
		}
		return Affine{A: -x.A, B: -x.B}, nil
	case *Binary:
		l, err := refAffine(n.L, env, timed)
		if err != nil {
			return Affine{}, err
		}
		r, err := refAffine(n.R, env, timed)
		if err != nil {
			return Affine{}, err
		}
		return affineArith(n, l, r)
	case *Cond:
		b, err := refEvalBool(n.If, env)
		if err != nil {
			return Affine{}, err
		}
		if b {
			return refAffine(n.Then, env, timed)
		}
		return refAffine(n.Else, env, timed)
	default:
		return Affine{}, fmt.Errorf("expr: unsupported node %T in timed context", e)
	}
}

// refWindow computes the set of delays at which the Boolean expression e
// holds.
func refWindow(e Expr, env RateEnv, timed Timed) (intervals.Set, error) {
	if !readsTimed(e, timed) {
		return boolWindow(refEvalBool(e, env))
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
		inner, err := refWindow(n.X, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		return inner.Complement(), nil
	case *Binary:
		return refWindowBinary(n, env, timed)
	case *Cond:
		return refWindowCond(n, env, timed)
	default:
		return intervals.Set{}, fmt.Errorf("expr: unsupported node %T in guard", e)
	}
}

func refWindowBinary(n *Binary, env RateEnv, timed Timed) (intervals.Set, error) {
	switch n.Op {
	case OpAnd, OpOr:
		l, err := refWindow(n.L, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		if stopsConnective(n.Op, l) {
			return l, nil
		}
		r, err := refWindow(n.R, env, timed)
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
			if s, ok, err := refBoolComparison(n, env); err != nil {
				return intervals.Set{}, err
			} else if ok {
				return s, nil
			}
		}
		l, err := refAffine(n.L, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		r, err := refAffine(n.R, env, timed)
		if err != nil {
			return intervals.Set{}, err
		}
		return solveSign(Affine{A: l.A - r.A, B: l.B - r.B}, n.Op, nil), nil
	default:
		return intervals.Set{}, fmt.Errorf("expr: operator %v used as guard", n.Op)
	}
}

// refBoolComparison handles = and != over Boolean subexpressions. ok is
// false when the operands are numeric.
func refBoolComparison(n *Binary, env RateEnv) (intervals.Set, bool, error) {
	lv, lerr := refEval(n.L, env)
	rv, rerr := refEval(n.R, env)
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

// refWindowCond handles Cond used as a guard: a delay-constant condition
// selects one branch; a timed one gives (W_if ∩ W_then) ∪ (¬W_if ∩ W_else).
func refWindowCond(c *Cond, env RateEnv, timed Timed) (intervals.Set, error) {
	if !readsTimed(c.If, timed) {
		b, err := refEvalBool(c.If, env)
		if err != nil {
			return intervals.Set{}, err
		}
		if b {
			return refWindow(c.Then, env, timed)
		}
		return refWindow(c.Else, env, timed)
	}
	wIf, err := refWindow(c.If, env, timed)
	if err != nil {
		return intervals.Set{}, err
	}
	wThen, err := refWindow(c.Then, env, timed)
	if err != nil {
		return intervals.Set{}, err
	}
	wElse, err := refWindow(c.Else, env, timed)
	if err != nil {
		return intervals.Set{}, err
	}
	return wIf.Intersect(wThen).Union(wIf.Complement().Intersect(wElse)), nil
}
