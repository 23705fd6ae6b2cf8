package expr

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// VarID identifies a variable in the global symbol table of an instantiated
// model. Unresolved references carry NoVar.
type VarID int

// NoVar marks a reference that has not been resolved yet.
const NoVar VarID = -1

// Env supplies variable values during evaluation.
type Env interface {
	// VarValue returns the current value of the variable.
	VarValue(id VarID) Value
}

// Op enumerates the operators of the expression language.
type Op int

// Operators.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpAnd
	OpOr
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the operator's surface syntax.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "mod"
	case OpNeg:
		return "-"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpNot:
		return "not"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Expr is a node of the expression AST. Evaluate it through its compiled
// forms (Compile, CompileBool, CompileAffine, CompileWindow).
type Expr interface {
	// String renders the expression in SLIM-like syntax.
	String() string
	// walk calls fn on this node and every descendant.
	walk(fn func(Expr))
}

// Lit is a literal constant.
type Lit struct {
	Val Value
}

// Literal returns a literal node for v.
func Literal(v Value) *Lit { return &Lit{Val: v} }

// True is the Boolean literal true.
func True() *Lit { return &Lit{Val: BoolVal(true)} }

// False is the Boolean literal false.
func False() *Lit { return &Lit{Val: BoolVal(false)} }

// String implements Expr.
func (l *Lit) String() string { return l.Val.String() }

func (l *Lit) walk(fn func(Expr)) { fn(l) }

// Ref is a variable reference. Name is the source-level (possibly
// qualified) name; ID is filled in by resolution.
type Ref struct {
	Name string
	ID   VarID
}

// Var returns a resolved reference to id, labeled name.
func Var(name string, id VarID) *Ref { return &Ref{Name: name, ID: id} }

// String implements Expr.
func (r *Ref) String() string { return r.Name }

func (r *Ref) walk(fn func(Expr)) { fn(r) }

// Unary is a unary operation (negation or logical not).
type Unary struct {
	Op Op
	X  Expr
}

// Not returns the logical negation of x.
func Not(x Expr) *Unary { return &Unary{Op: OpNot, X: x} }

// Neg returns the arithmetic negation of x.
func Neg(x Expr) *Unary { return &Unary{Op: OpNeg, X: x} }

// String implements Expr.
func (u *Unary) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("not (%s)", u.X)
	}
	return fmt.Sprintf("-(%s)", u.X)
}

func (u *Unary) walk(fn func(Expr)) {
	fn(u)
	u.X.walk(fn)
}

// Binary is a binary operation.
type Binary struct {
	Op   Op
	L, R Expr
}

// Bin returns the binary node op(l, r).
func Bin(op Op, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// And returns the conjunction of the given expressions (True for none).
func And(xs ...Expr) Expr {
	return fold(OpAnd, xs, True())
}

// Or returns the disjunction of the given expressions (False for none).
func Or(xs ...Expr) Expr {
	return fold(OpOr, xs, False())
}

func fold(op Op, xs []Expr, empty Expr) Expr {
	switch len(xs) {
	case 0:
		return empty
	case 1:
		return xs[0]
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = Bin(op, acc, x)
	}
	return acc
}

// ErrDivisionByZero is returned when a division or modulo has a zero
// divisor.
var ErrDivisionByZero = errors.New("expr: division by zero")

func evalArith(op Op, l, r Value) (Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return Value{}, fmt.Errorf("expr: %v applied to %s and %s", op, l.Kind(), r.Kind())
	}
	// Integer arithmetic when both operands are ints; real otherwise.
	if l.Kind() == KindInt && r.Kind() == KindInt {
		li, ri := l.Int(), r.Int()
		switch op {
		case OpAdd:
			return IntVal(li + ri), nil
		case OpSub:
			return IntVal(li - ri), nil
		case OpMul:
			return IntVal(li * ri), nil
		case OpDiv:
			if ri == 0 {
				return Value{}, ErrDivisionByZero
			}
			return IntVal(li / ri), nil
		case OpMod:
			if ri == 0 {
				return Value{}, ErrDivisionByZero
			}
			return IntVal(li % ri), nil
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return RealVal(lf + rf), nil
	case OpSub:
		return RealVal(lf - rf), nil
	case OpMul:
		return RealVal(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return Value{}, ErrDivisionByZero
		}
		return RealVal(lf / rf), nil
	case OpMod:
		if rf == 0 {
			return Value{}, ErrDivisionByZero
		}
		return RealVal(math.Mod(lf, rf)), nil
	}
	return Value{}, fmt.Errorf("expr: invalid arithmetic operator %v", op)
}

// String implements Expr.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func (b *Binary) walk(fn func(Expr)) {
	fn(b)
	b.L.walk(fn)
	b.R.walk(fn)
}

// Walk calls fn on e and every descendant node.
func Walk(e Expr, fn func(Expr)) { e.walk(fn) }

// Refs returns the set of variable IDs referenced by e.
func Refs(e Expr) map[VarID]struct{} {
	out := make(map[VarID]struct{})
	Walk(e, func(n Expr) {
		if r, ok := n.(*Ref); ok && r.ID != NoVar {
			out[r.ID] = struct{}{}
		}
	})
	return out
}

// Resolve rewrites every unresolved Ref in place using lookup, which maps a
// source name to a VarID. It returns an error listing all names that fail
// to resolve.
func Resolve(e Expr, lookup func(name string) (VarID, bool)) error {
	var missing []string
	Walk(e, func(n Expr) {
		r, ok := n.(*Ref)
		if !ok || r.ID != NoVar {
			return
		}
		id, found := lookup(r.Name)
		if !found {
			missing = append(missing, r.Name)
			return
		}
		r.ID = id
	})
	if len(missing) > 0 {
		return fmt.Errorf("expr: unresolved references: %s", strings.Join(missing, ", "))
	}
	return nil
}
