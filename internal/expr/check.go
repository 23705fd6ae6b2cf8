package expr

import (
	"errors"
	"fmt"
)

// Decls maps variable IDs to their declared types for static checking.
type Decls interface {
	// VarType returns the declared type of id. ok is false for unknown
	// IDs.
	VarType(id VarID) (Type, bool)
}

// DeclMap is a map-backed Decls.
type DeclMap map[VarID]Type

// VarType implements Decls.
func (m DeclMap) VarType(id VarID) (Type, bool) {
	t, ok := m[id]
	return t, ok
}

// CheckError is a structured static-checking failure. Node is the smallest
// subexpression the problem was detected at, so callers that track node
// provenance (the linter) can map the failure back to a source position.
type CheckError struct {
	Node Expr
	Msg  string
}

// Error implements the error interface with the package's historical
// "expr: message" rendering.
func (e *CheckError) Error() string { return "expr: " + e.Msg }

// ErrNode returns the node a static-checking error was detected at. ok is
// false when err carries no *CheckError.
func ErrNode(err error) (Expr, bool) {
	var e *CheckError
	if errors.As(err, &e) {
		return e.Node, true
	}
	return nil, false
}

func checkErrf(node Expr, format string, args ...any) error {
	return &CheckError{Node: node, Msg: fmt.Sprintf(format, args...)}
}

// Check infers the expression's kind and validates operator/operand
// compatibility without evaluating it. Int and real mix freely in
// arithmetic and comparisons (the result widens to real). Failures are
// *CheckError values carrying the offending node.
func Check(e Expr, decls Decls) (Kind, error) {
	if e == nil {
		return 0, checkErrf(nil, "nil expression")
	}
	switch n := e.(type) {
	case *Lit:
		if n.Val.Kind() == 0 {
			return 0, checkErrf(n, "literal with invalid value")
		}
		return n.Val.Kind(), nil
	case *Ref:
		if n.ID == NoVar {
			return 0, checkErrf(n, fmt.Sprintf("unresolved reference %q", n.Name))
		}
		t, ok := decls.VarType(n.ID)
		if !ok {
			return 0, checkErrf(n, fmt.Sprintf("unknown variable id %d (%s)", n.ID, n.Name))
		}
		return t.Kind, nil
	case *Unary:
		k, err := Check(n.X, decls)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case OpNot:
			if k != KindBool {
				return 0, checkErrf(n, fmt.Sprintf("not applied to %s in %s", k, e))
			}
			return KindBool, nil
		case OpNeg:
			if k == KindBool {
				return 0, checkErrf(n, fmt.Sprintf("negation applied to bool in %s", e))
			}
			return k, nil
		default:
			return 0, checkErrf(n, fmt.Sprintf("invalid unary operator %v", n.Op))
		}
	case *Binary:
		return checkBinary(n, decls)
	case *Cond:
		if err := CheckBool(n.If, decls); err != nil {
			return 0, err
		}
		tk, err := Check(n.Then, decls)
		if err != nil {
			return 0, err
		}
		ek, err := Check(n.Else, decls)
		if err != nil {
			return 0, err
		}
		if tk == ek {
			return tk, nil
		}
		numeric := func(k Kind) bool { return k == KindInt || k == KindReal }
		if numeric(tk) && numeric(ek) {
			return KindReal, nil
		}
		return 0, checkErrf(n, fmt.Sprintf("conditional branches have kinds %s and %s in %s", tk, ek, n))
	default:
		return 0, checkErrf(e, fmt.Sprintf("unsupported node %T", e))
	}
}

func checkBinary(n *Binary, decls Decls) (Kind, error) {
	lk, err := Check(n.L, decls)
	if err != nil {
		return 0, err
	}
	rk, err := Check(n.R, decls)
	if err != nil {
		return 0, err
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindReal }
	switch n.Op {
	case OpAnd, OpOr:
		if lk != KindBool || rk != KindBool {
			return 0, checkErrf(n, fmt.Sprintf("%v applied to %s and %s in %s", n.Op, lk, rk, n))
		}
		return KindBool, nil
	case OpEq, OpNe:
		if lk == KindBool && rk == KindBool {
			return KindBool, nil
		}
		if numeric(lk) && numeric(rk) {
			return KindBool, nil
		}
		return 0, checkErrf(n, fmt.Sprintf("%v compares %s with %s in %s", n.Op, lk, rk, n))
	case OpLt, OpLe, OpGt, OpGe:
		if !numeric(lk) || !numeric(rk) {
			return 0, checkErrf(n, fmt.Sprintf("%v applied to %s and %s in %s", n.Op, lk, rk, n))
		}
		return KindBool, nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if !numeric(lk) || !numeric(rk) {
			return 0, checkErrf(n, fmt.Sprintf("%v applied to %s and %s in %s", n.Op, lk, rk, n))
		}
		if lk == KindInt && rk == KindInt {
			return KindInt, nil
		}
		return KindReal, nil
	default:
		return 0, checkErrf(n, fmt.Sprintf("invalid binary operator %v", n.Op))
	}
}

// CheckBool verifies that e is a well-typed Boolean expression.
func CheckBool(e Expr, decls Decls) error {
	k, err := Check(e, decls)
	if err != nil {
		return err
	}
	if k != KindBool {
		return checkErrf(e, fmt.Sprintf("expected Boolean expression, %s has kind %s", e, k))
	}
	return nil
}

// TimedLinear verifies that every multiplication, division and modulo in e
// has at most one operand that (transitively) depends on a timed variable,
// so the expression is affine in the delay. It is a static counterpart of
// CompileAffine's dynamic check, used during model validation.
func TimedLinear(e Expr, decls Decls) error {
	_, err := timedDeps(e, decls)
	return err
}

// timedDeps reports whether e depends on a clock or continuous variable.
func timedDeps(e Expr, decls Decls) (bool, error) {
	if e == nil {
		return false, checkErrf(nil, "nil expression")
	}
	switch n := e.(type) {
	case *Lit:
		return false, nil
	case *Ref:
		if n.ID == NoVar {
			return false, checkErrf(n, fmt.Sprintf("unresolved reference %q", n.Name))
		}
		t, ok := decls.VarType(n.ID)
		if !ok {
			return false, checkErrf(n, fmt.Sprintf("unknown variable id %d (%s)", n.ID, n.Name))
		}
		return t.Timed(), nil
	case *Unary:
		return timedDeps(n.X, decls)
	case *Binary:
		l, err := timedDeps(n.L, decls)
		if err != nil {
			return false, err
		}
		r, err := timedDeps(n.R, decls)
		if err != nil {
			return false, err
		}
		switch n.Op {
		case OpMul:
			if l && r {
				return false, checkErrf(n, fmt.Sprintf("product of two timed expressions in %s", n))
			}
		case OpDiv, OpMod:
			if r {
				return false, checkErrf(n, fmt.Sprintf("timed divisor in %s", n))
			}
		}
		return l || r, nil
	case *Cond:
		c, err := timedDeps(n.If, decls)
		if err != nil {
			return false, err
		}
		tb, err := timedDeps(n.Then, decls)
		if err != nil {
			return false, err
		}
		eb, err := timedDeps(n.Else, decls)
		if err != nil {
			return false, err
		}
		// A time-dependent condition makes the value piecewise affine,
		// which CompileAffine cannot represent; reject it in numeric
		// contexts. (CompileWindow handles it exactly, but TimedLinear
		// guards the numeric path.)
		if c && (tb || eb || n.branchesNumeric(decls)) {
			return false, checkErrf(n, fmt.Sprintf("timed condition in conditional %s", n))
		}
		return c || tb || eb, nil
	default:
		return false, checkErrf(e, fmt.Sprintf("unsupported node %T", e))
	}
}

// branchesNumeric reports whether the conditional's branches are numeric
// (as opposed to Boolean), best-effort: errors count as non-numeric.
func (c *Cond) branchesNumeric(decls Decls) bool {
	k, err := Check(c.Then, decls)
	return err == nil && k != KindBool
}
