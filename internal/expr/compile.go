package expr

import (
	"fmt"

	"slimsim/internal/intervals"
)

// This file implements closure compilation of expression ASTs, the only
// way the program evaluates an expression. Compiling replaces a
// per-evaluation AST walk — a type switch and interface dispatch at every
// node — with a tree of closures specialized once, at compile time, per
// node. Constant subtrees collapse to their value, and the operator
// dispatch, reference resolution and kind checks that do not depend on the
// environment are hoisted out of the evaluation path.
//
// The semantics are those of a plain left-to-right tree walk: operands in
// source order, short-circuit and/or, and each error produced at the point
// the walk would reach it. reference_test.go keeps such a walk as the
// tests' oracle, and the compiled forms match it value for value and
// error for error. Constant folding only replaces a subtree whose
// evaluation succeeds without an environment; a constant subtree that
// would error (e.g. a division by zero) compiles to the ordinary lazy
// closure so the error still surfaces exactly when — and only when —
// evaluation reaches it.
//
// Expr is sealed by its unexported walk method, so the default branches of
// the type switches below are unreachable; they return the "unsupported
// node" errors a walk over a foreign node type would report.

// Code is a compiled expression: call it with an environment to evaluate.
type Code func(env Env) (Value, error)

// BoolCode is a compiled Boolean expression.
type BoolCode func(env Env) (bool, error)

// AffineCode is a compiled timed numeric expression: it returns the
// expression's value as an affine function of the delay.
type AffineCode func(env RateEnv) (Affine, error)

// WindowCode is a compiled timed guard: it returns the set of delays at
// which the guard holds. It builds that set, and the sets it combines, in
// a (see intervals.Arena); a nil arena allocates them.
type WindowCode func(env RateEnv, a *intervals.Arena) (intervals.Set, error)

// Compile builds the closure form of e. The result is immutable and safe
// for concurrent use (assuming e is not mutated).
func Compile(e Expr) Code {
	code, _ := compile(e)
	return code
}

// compile returns e's code plus whether e is a constant subtree whose
// value the code returns without consulting the environment.
func compile(e Expr) (Code, bool) {
	switch n := e.(type) {
	case *Lit:
		v := n.Val
		return func(Env) (Value, error) { return v, nil }, true
	case *Ref:
		if n.ID == NoVar {
			name := n.Name
			return func(Env) (Value, error) {
				return Value{}, fmt.Errorf("expr: unresolved reference %q", name)
			}, false
		}
		id := n.ID
		return func(env Env) (Value, error) { return env.VarValue(id), nil }, false
	case *Unary:
		return compileUnary(n)
	case *Binary:
		return compileBinary(n)
	case *Cond:
		return compileCond(n)
	default:
		return func(Env) (Value, error) {
			return Value{}, fmt.Errorf("expr: unsupported node %T", e)
		}, false
	}
}

// tryFold replaces a closed subtree by its value when evaluation succeeds.
// code must be the compiled form of a subtree whose children are all
// constant; env-free evaluation is then well-defined.
func tryFold(code Code) (Code, bool) {
	v, err := code(nil)
	if err != nil {
		return code, false
	}
	return func(Env) (Value, error) { return v, nil }, true
}

func compileUnary(n *Unary) (Code, bool) {
	x, xConst := compile(n.X)
	var code Code
	switch n.Op {
	case OpNot:
		code = func(env Env) (Value, error) {
			v, err := x(env)
			if err != nil {
				return Value{}, err
			}
			if v.Kind() != KindBool {
				return Value{}, fmt.Errorf("expr: not applied to %s", v.Kind())
			}
			return BoolVal(!v.Bool()), nil
		}
	case OpNeg:
		code = func(env Env) (Value, error) {
			v, err := x(env)
			if err != nil {
				return Value{}, err
			}
			switch v.Kind() {
			case KindInt:
				return IntVal(-v.Int()), nil
			case KindReal:
				return RealVal(-v.Real()), nil
			default:
				return Value{}, fmt.Errorf("expr: negation applied to %s", v.Kind())
			}
		}
	default:
		op := n.Op
		code = func(env Env) (Value, error) {
			// The operand is evaluated before the operator is rejected.
			if _, err := x(env); err != nil {
				return Value{}, err
			}
			return Value{}, fmt.Errorf("expr: invalid unary operator %v", op)
		}
	}
	if xConst {
		return tryFold(code)
	}
	return code, false
}

func compileBinary(n *Binary) (Code, bool) {
	l, lConst := compile(n.L)
	r, rConst := compile(n.R)
	op := n.Op
	var code Code
	switch op {
	case OpAnd, OpOr:
		isAnd := op == OpAnd
		code = func(env Env) (Value, error) {
			lv, err := l(env)
			if err != nil {
				return Value{}, err
			}
			if lv.Kind() != KindBool {
				return Value{}, fmt.Errorf("expr: %v applied to %s", op, lv.Kind())
			}
			if isAnd && !lv.Bool() {
				return BoolVal(false), nil
			}
			if !isAnd && lv.Bool() {
				return BoolVal(true), nil
			}
			rv, err := r(env)
			if err != nil {
				return Value{}, err
			}
			if rv.Kind() != KindBool {
				return Value{}, fmt.Errorf("expr: %v applied to %s", op, rv.Kind())
			}
			return rv, nil
		}
	case OpEq:
		code = func(env Env) (Value, error) {
			lv, rv, err := evalPair(l, r, env)
			if err != nil {
				return Value{}, err
			}
			return BoolVal(lv.Equal(rv)), nil
		}
	case OpNe:
		code = func(env Env) (Value, error) {
			lv, rv, err := evalPair(l, r, env)
			if err != nil {
				return Value{}, err
			}
			return BoolVal(!lv.Equal(rv)), nil
		}
	case OpLt, OpLe, OpGt, OpGe:
		var cmp func(lf, rf float64) bool
		switch op {
		case OpLt:
			cmp = func(lf, rf float64) bool { return lf < rf }
		case OpLe:
			cmp = func(lf, rf float64) bool { return lf <= rf }
		case OpGt:
			cmp = func(lf, rf float64) bool { return lf > rf }
		default:
			cmp = func(lf, rf float64) bool { return lf >= rf }
		}
		code = func(env Env) (Value, error) {
			lv, rv, err := evalPair(l, r, env)
			if err != nil {
				return Value{}, err
			}
			if !lv.IsNumeric() || !rv.IsNumeric() {
				return Value{}, fmt.Errorf("expr: %v applied to %s and %s", op, lv.Kind(), rv.Kind())
			}
			return BoolVal(cmp(lv.AsFloat(), rv.AsFloat())), nil
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		code = func(env Env) (Value, error) {
			lv, rv, err := evalPair(l, r, env)
			if err != nil {
				return Value{}, err
			}
			return evalArith(op, lv, rv)
		}
	default:
		code = func(env Env) (Value, error) {
			if _, _, err := evalPair(l, r, env); err != nil {
				return Value{}, err
			}
			return Value{}, fmt.Errorf("expr: invalid binary operator %v", op)
		}
	}
	if lConst && rConst {
		return tryFold(code)
	}
	return code, false
}

func evalPair(l, r Code, env Env) (Value, Value, error) {
	lv, err := l(env)
	if err != nil {
		return Value{}, Value{}, err
	}
	rv, err := r(env)
	if err != nil {
		return Value{}, Value{}, err
	}
	return lv, rv, nil
}

func compileCond(n *Cond) (Code, bool) {
	ifC := CompileBool(n.If)
	thenC, thenConst := compile(n.Then)
	elseC, elseConst := compile(n.Else)
	code := func(env Env) (Value, error) {
		b, err := ifC(env)
		if err != nil {
			return Value{}, err
		}
		if b {
			return thenC(env)
		}
		return elseC(env)
	}
	if isConst(n.If) && thenConst && elseConst {
		return tryFold(code)
	}
	return code, false
}

// isConst reports whether e contains no variable references, so its value
// (or error) does not depend on the environment.
func isConst(e Expr) bool {
	ok := true
	Walk(e, func(n Expr) {
		if _, ref := n.(*Ref); ref {
			ok = false
		}
	})
	return ok
}

// CompileBool builds the closure form of a Boolean expression; a
// non-Boolean result is an error.
func CompileBool(e Expr) BoolCode {
	code, cst := compile(e)
	if cst {
		if v, err := code(nil); err == nil && v.Kind() == KindBool {
			b := v.Bool()
			return func(Env) (bool, error) { return b, nil }
		}
	}
	return func(env Env) (bool, error) {
		v, err := code(env)
		if err != nil {
			return false, err
		}
		if v.Kind() != KindBool {
			return false, fmt.Errorf("expr: expected bool, got %s in %s", v.Kind(), e)
		}
		return v.Bool(), nil
	}
}

// CompileAffine builds the closure form of a timed numeric expression: its
// value as an affine function of the delay d, given current values and
// rates. A subtree that reads no timed variable compiles through Compile,
// so it keeps value semantics (see Timed). The program fails if the
// expression is non-linear in d (the SLIM subset forbids such dynamics) or
// not numeric. A Cond must have a delay-constant condition here, which
// TimedLinear enforces statically.
func CompileAffine(e Expr, timed Timed) AffineCode {
	if !readsTimed(e, timed) {
		code, cst := compile(e)
		if cst {
			if a, err := constAffine(code(nil)); err == nil {
				return func(RateEnv) (Affine, error) { return a, nil }
			}
		}
		return func(env RateEnv) (Affine, error) { return constAffine(code(env)) }
	}
	switch n := e.(type) {
	case *Ref:
		id, name := n.ID, n.Name
		return func(env RateEnv) (Affine, error) {
			v := env.VarValue(id)
			if !v.IsNumeric() {
				return Affine{}, fmt.Errorf("expr: non-numeric variable %s in timed context", name)
			}
			return Affine{A: v.AsFloat(), B: env.VarRate(id)}, nil
		}
	case *Unary:
		if n.Op != OpNeg {
			op := n.Op
			return func(RateEnv) (Affine, error) {
				return Affine{}, fmt.Errorf("expr: operator %v in timed numeric context", op)
			}
		}
		x := CompileAffine(n.X, timed)
		return func(env RateEnv) (Affine, error) {
			xv, err := x(env)
			if err != nil {
				return Affine{}, err
			}
			return Affine{A: -xv.A, B: -xv.B}, nil
		}
	case *Binary:
		l := CompileAffine(n.L, timed)
		r := CompileAffine(n.R, timed)
		return func(env RateEnv) (Affine, error) {
			lv, err := l(env)
			if err != nil {
				return Affine{}, err
			}
			rv, err := r(env)
			if err != nil {
				return Affine{}, err
			}
			return affineArith(n, lv, rv)
		}
	case *Cond:
		ifC := CompileBool(n.If)
		thenC := CompileAffine(n.Then, timed)
		elseC := CompileAffine(n.Else, timed)
		return func(env RateEnv) (Affine, error) {
			b, err := ifC(env)
			if err != nil {
				return Affine{}, err
			}
			if b {
				return thenC(env)
			}
			return elseC(env)
		}
	default:
		return func(RateEnv) (Affine, error) {
			return Affine{}, fmt.Errorf("expr: unsupported node %T in timed context", e)
		}
	}
}

// CompileWindow builds the closure form of a guard: its program computes
// the set of delays d ∈ (-inf, +inf) at which the guard holds, assuming
// variables evolve with the rates of the environment. The caller
// intersects the result with [0, maxDelay].
//
// Comparisons over timed variables reduce to sign conditions on affine
// functions; Boolean connectives map to set algebra, and and/or stop at an
// empty/full left window just as evaluation stops at a false/true left
// operand. A subtree that reads no timed variable compiles to one
// CompileBool program whose result selects the shared full or the zero
// empty set, and the set algebra short-circuits on both, so guards that do
// not depend on the delay compute their window without allocating. Timed
// guards build their sets in the arena the program is called with.
func CompileWindow(e Expr, timed Timed) WindowCode {
	if !readsTimed(e, timed) {
		b := CompileBool(e)
		return func(env RateEnv, _ *intervals.Arena) (intervals.Set, error) { return boolWindow(b(env)) }
	}
	switch n := e.(type) {
	case *Ref:
		id, name := n.ID, n.Name
		return func(env RateEnv, _ *intervals.Arena) (intervals.Set, error) {
			v := env.VarValue(id)
			if v.Kind() != KindBool {
				return intervals.Set{}, fmt.Errorf("expr: non-Boolean variable %s used as guard", name)
			}
			return boolSet(v.Bool()), nil
		}
	case *Unary:
		if n.Op != OpNot {
			op := n.Op
			return func(RateEnv, *intervals.Arena) (intervals.Set, error) {
				return intervals.Set{}, fmt.Errorf("expr: operator %v used as guard", op)
			}
		}
		x := CompileWindow(n.X, timed)
		return func(env RateEnv, a *intervals.Arena) (intervals.Set, error) {
			inner, err := x(env, a)
			if err != nil {
				return intervals.Set{}, err
			}
			return a.Complement(inner), nil
		}
	case *Binary:
		return compileWindowBinary(n, timed)
	case *Cond:
		return compileWindowCond(n, timed)
	default:
		return func(RateEnv, *intervals.Arena) (intervals.Set, error) {
			return intervals.Set{}, fmt.Errorf("expr: unsupported node %T in guard", e)
		}
	}
}

// compileWindowCond compiles a Cond used as a guard. A delay-constant
// condition selects one branch, as evaluation does; a timed one gives
// (W_if ∩ W_then) ∪ (¬W_if ∩ W_else), which is exact even for
// time-dependent conditions.
func compileWindowCond(n *Cond, timed Timed) WindowCode {
	thenC := CompileWindow(n.Then, timed)
	elseC := CompileWindow(n.Else, timed)
	if !readsTimed(n.If, timed) {
		ifC := CompileBool(n.If)
		return func(env RateEnv, a *intervals.Arena) (intervals.Set, error) {
			b, err := ifC(env)
			if err != nil {
				return intervals.Set{}, err
			}
			if b {
				return thenC(env, a)
			}
			return elseC(env, a)
		}
	}
	ifC := CompileWindow(n.If, timed)
	return func(env RateEnv, a *intervals.Arena) (intervals.Set, error) {
		wIf, err := ifC(env, a)
		if err != nil {
			return intervals.Set{}, err
		}
		wThen, err := thenC(env, a)
		if err != nil {
			return intervals.Set{}, err
		}
		wElse, err := elseC(env, a)
		if err != nil {
			return intervals.Set{}, err
		}
		return a.Union(a.Intersect(wIf, wThen), a.Intersect(a.Complement(wIf), wElse)), nil
	}
}

func compileWindowBinary(n *Binary, timed Timed) WindowCode {
	op := n.Op
	switch op {
	case OpAnd, OpOr:
		l := CompileWindow(n.L, timed)
		r := CompileWindow(n.R, timed)
		isAnd := op == OpAnd
		return func(env RateEnv, a *intervals.Arena) (intervals.Set, error) {
			lv, err := l(env, a)
			if err != nil {
				return intervals.Set{}, err
			}
			if stopsConnective(op, lv) {
				return lv, nil
			}
			rv, err := r(env, a)
			if err != nil {
				return intervals.Set{}, err
			}
			if isAnd {
				return a.Intersect(lv, rv), nil
			}
			return a.Union(lv, rv), nil
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		lAff := CompileAffine(n.L, timed)
		rAff := CompileAffine(n.R, timed)
		// The Boolean-comparison probe needs plain value evaluation of
		// both operands; compile those too when the operator admits it.
		var lVal, rVal Code
		if op == OpEq || op == OpNe {
			lVal = Compile(n.L)
			rVal = Compile(n.R)
		}
		return func(env RateEnv, a *intervals.Arena) (intervals.Set, error) {
			if lVal != nil {
				if s, ok, err := tryBoolComparison(op, lVal, rVal, env); err != nil {
					return intervals.Set{}, err
				} else if ok {
					return s, nil
				}
			}
			lv, err := lAff(env)
			if err != nil {
				return intervals.Set{}, err
			}
			rv, err := rAff(env)
			if err != nil {
				return intervals.Set{}, err
			}
			diff := Affine{A: lv.A - rv.A, B: lv.B - rv.B}
			return solveSign(diff, op, a), nil
		}
	default:
		return func(RateEnv, *intervals.Arena) (intervals.Set, error) {
			return intervals.Set{}, fmt.Errorf("expr: operator %v used as guard", op)
		}
	}
}

// tryBoolComparison handles = and != over Boolean operands, which are
// constant during a delay. ok is false when the operands are numeric.
func tryBoolComparison(op Op, l, r Code, env Env) (intervals.Set, bool, error) {
	lv, lerr := l(env)
	rv, rerr := r(env)
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
	if op == OpNe {
		eq = !eq
	}
	return boolSet(eq), true, nil
}
