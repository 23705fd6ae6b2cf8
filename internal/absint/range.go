package absint

import (
	"math"

	"slimsim/internal/expr"
	"slimsim/internal/intervals"
)

// This file is the expression-evaluation layer of the abstract interpreter:
// interval bounds and three-valued truth for expressions over an abstract
// store. Two properties matter here. First, ranges come from a store
// lookup (per-mode propagated values, or declared types alone for
// DeclaredUnsat), so every operation must stay sound when the lookup
// reports "unknown". Second, Booleans are encoded as sub-intervals of
// [0,1] (false = 0, true = 1), which lets stores track Boolean variables
// and lets comparisons against Boolean literals participate in the
// analysis.

// lookFn reports the interval of values a variable may hold in the current
// abstract context. ok is false when nothing is known (the caller must
// treat the variable as unconstrained).
type lookFn func(v expr.VarID) (intervals.Interval, bool)

// verdict is a three-valued truth value ordered vFalse < vUnknown < vTrue,
// so that conjunction is min and disjunction is max.
type verdict int

const (
	vFalse verdict = iota - 1
	vUnknown
	vTrue
)

func (v verdict) not() verdict { return -v }

func vMin(a, b verdict) verdict {
	if a < b {
		return a
	}
	return b
}

func vMax(a, b verdict) verdict {
	if a > b {
		return a
	}
	return b
}

// declaredRange returns the interval a variable's values are confined to by
// its declared type, with Booleans mapped to [0,1]. This is sound as the
// "top" element per variable: the runtime re-checks every assigned and
// flow-computed value against its declared type and aborts on violations,
// and clocks never go negative.
func declaredRange(t expr.Type) intervals.Interval {
	switch {
	case t.Kind == expr.KindBool:
		return intervals.Closed(0, 1)
	case t.Kind == expr.KindInt && t.HasRange:
		return intervals.Closed(float64(t.Min), float64(t.Max))
	case t.Clock:
		return intervals.AtLeast(0)
	default:
		return intervals.All()
	}
}

// DeclaredUnsat reports whether e cannot hold at any valuation within the
// declared ranges of its variables (Booleans as 0/1, clocks non-negative).
// Nothing is propagated and flow variables are bounded by their declared
// type, not their defining expressions, so the verdict holds for every
// state the runtime admits.
func DeclaredUnsat(e expr.Expr, decls expr.Decls) bool {
	return satisfy(e, func(v expr.VarID) (intervals.Interval, bool) {
		t, ok := decls.VarType(v)
		if !ok {
			return intervals.Interval{}, false
		}
		return declaredRange(t), true
	}) == vFalse
}

// valInterval encodes a concrete value as a point interval (Booleans as
// 0/1).
func valInterval(v expr.Value) intervals.Interval {
	if v.Kind() == expr.KindBool {
		if v.Bool() {
			return intervals.Point(1)
		}
		return intervals.Point(0)
	}
	return intervals.Point(v.AsFloat())
}

// rangeOf bounds an expression by an interval under the store lookup. ok is
// false when nothing useful is known. Boolean subexpressions are bounded
// within [0,1] via their three-valued verdict.
func rangeOf(e expr.Expr, look lookFn) (intervals.Interval, bool) {
	switch n := e.(type) {
	case *expr.Lit:
		return valInterval(n.Val), true
	case *expr.Ref:
		return look(n.ID)
	case *expr.Unary:
		switch n.Op {
		case expr.OpNeg:
			x, ok := rangeOf(n.X, look)
			if !ok {
				return intervals.Interval{}, false
			}
			return checked(intervals.Interval{Lo: -x.Hi, Hi: -x.Lo, LoOpen: x.HiOpen, HiOpen: x.LoOpen})
		case expr.OpNot:
			return verdictInterval(satisfy(n.X, look)), true
		default:
			return intervals.Interval{}, false
		}
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd, expr.OpOr, expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return verdictInterval(satisfy(e, look)), true
		}
		return rangeOfBinary(n, look)
	case *expr.Cond:
		a, ok := rangeOf(n.Then, look)
		if !ok {
			return intervals.Interval{}, false
		}
		b, ok := rangeOf(n.Else, look)
		if !ok {
			return intervals.Interval{}, false
		}
		switch satisfy(n.If, look) {
		case vTrue:
			return a, true
		case vFalse:
			return b, true
		}
		return checked(hull(a, b))
	default:
		return intervals.Interval{}, false
	}
}

// verdictInterval maps a three-valued truth to its 0/1 interval encoding.
func verdictInterval(v verdict) intervals.Interval {
	switch v {
	case vTrue:
		return intervals.Point(1)
	case vFalse:
		return intervals.Point(0)
	default:
		return intervals.Closed(0, 1)
	}
}

func rangeOfBinary(n *expr.Binary, look lookFn) (intervals.Interval, bool) {
	l, ok := rangeOf(n.L, look)
	if !ok {
		return intervals.Interval{}, false
	}
	r, ok := rangeOf(n.R, look)
	if !ok {
		return intervals.Interval{}, false
	}
	switch n.Op {
	case expr.OpAdd:
		return checked(intervals.Interval{Lo: l.Lo + r.Lo, Hi: l.Hi + r.Hi})
	case expr.OpSub:
		return checked(intervals.Interval{Lo: l.Lo - r.Hi, Hi: l.Hi - r.Lo})
	case expr.OpMul:
		ps := [4]float64{l.Lo * r.Lo, l.Lo * r.Hi, l.Hi * r.Lo, l.Hi * r.Hi}
		lo, hi := ps[0], ps[0]
		for _, p := range ps[1:] {
			lo, hi = math.Min(lo, p), math.Max(hi, p)
		}
		return checked(intervals.Interval{Lo: lo, Hi: hi})
	case expr.OpDiv:
		return divRange(l, r)
	case expr.OpMod:
		return modRange(l, r)
	default:
		return intervals.Interval{}, false
	}
}

// divRange bounds l / r. When the divisor may be zero the result is
// unknown (evaluation may abort the run). Integer division truncates
// toward zero, so the hull of the real quotient range with 0 covers both
// the integer and the real semantics.
func divRange(l, r intervals.Interval) (intervals.Interval, bool) {
	if r.Contains(0) || r.Empty() {
		return intervals.Interval{}, false
	}
	ps := [4]float64{l.Lo / r.Lo, l.Lo / r.Hi, l.Hi / r.Lo, l.Hi / r.Hi}
	lo, hi := ps[0], ps[0]
	for _, p := range ps[1:] {
		lo, hi = math.Min(lo, p), math.Max(hi, p)
	}
	lo, hi = math.Min(lo, 0), math.Max(hi, 0)
	return checked(intervals.Interval{Lo: lo, Hi: hi})
}

// modRange bounds l mod r: the result's magnitude is below the divisor's
// and the dividend's largest magnitudes, and its sign follows the
// dividend (both Go's integer % and math.Mod).
func modRange(l, r intervals.Interval) (intervals.Interval, bool) {
	if r.Contains(0) || r.Empty() || l.Empty() {
		return intervals.Interval{}, false
	}
	b := math.Max(math.Abs(r.Lo), math.Abs(r.Hi))
	b = math.Min(b, math.Max(math.Abs(l.Lo), math.Abs(l.Hi)))
	lo, hi := -b, b
	if l.Lo >= 0 {
		lo = 0
	}
	if l.Hi <= 0 {
		hi = 0
	}
	return checked(intervals.Interval{Lo: lo, Hi: hi})
}

// checked rejects NaN endpoints (e.g. inf*0) as unknown.
func checked(iv intervals.Interval) (intervals.Interval, bool) {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return intervals.Interval{}, false
	}
	return iv, true
}

// hull returns the smallest interval containing both operands.
func hull(a, b intervals.Interval) intervals.Interval {
	out := a
	if b.Lo < out.Lo || (b.Lo == out.Lo && !b.LoOpen) {
		out.Lo, out.LoOpen = b.Lo, b.LoOpen
	}
	if b.Hi > out.Hi || (b.Hi == out.Hi && !b.HiOpen) {
		out.Hi, out.HiOpen = b.Hi, b.HiOpen
	}
	return out
}

// setHull returns the smallest interval containing the set.
func setHull(s intervals.Set) intervals.Interval {
	ivs := s.Intervals()
	if len(ivs) == 0 {
		return intervals.Interval{Lo: 1, Hi: 0} // empty
	}
	first, last := ivs[0], ivs[len(ivs)-1]
	return intervals.Interval{Lo: first.Lo, LoOpen: first.LoOpen, Hi: last.Hi, HiOpen: last.HiOpen}
}

// satisfy computes a three-valued verdict for a Boolean expression under
// the store lookup.
func satisfy(e expr.Expr, look lookFn) verdict {
	switch n := e.(type) {
	case *expr.Lit:
		if n.Val.Kind() != expr.KindBool {
			return vUnknown
		}
		if n.Val.Bool() {
			return vTrue
		}
		return vFalse
	case *expr.Ref:
		iv, ok := look(n.ID)
		if !ok || iv.Empty() {
			return vUnknown
		}
		// Boolean variables hold exactly 0 or 1; excluding either value
		// decides the verdict.
		if !iv.Contains(1) {
			return vFalse
		}
		if !iv.Contains(0) {
			return vTrue
		}
		return vUnknown
	case *expr.Unary:
		if n.Op != expr.OpNot {
			return vUnknown
		}
		return satisfy(n.X, look).not()
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			v := vMin(satisfy(n.L, look), satisfy(n.R, look))
			if v == vUnknown && conjUnsat(n, look) {
				return vFalse
			}
			return v
		case expr.OpOr:
			return vMax(satisfy(n.L, look), satisfy(n.R, look))
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return compareVerdict(n, look)
		default:
			return vUnknown
		}
	case *expr.Cond:
		switch satisfy(n.If, look) {
		case vTrue:
			return satisfy(n.Then, look)
		case vFalse:
			return satisfy(n.Else, look)
		default:
			t, e := satisfy(n.Then, look), satisfy(n.Else, look)
			if t == e {
				return t
			}
			return vUnknown
		}
	default:
		return vUnknown
	}
}

// compareVerdict decides a comparison atom from the operand ranges. Only
// the endpoint values are compared, which is conservative regardless of
// endpoint openness.
func compareVerdict(n *expr.Binary, look lookFn) verdict {
	l, ok := rangeOf(n.L, look)
	if !ok {
		return vUnknown
	}
	r, ok := rangeOf(n.R, look)
	if !ok {
		return vUnknown
	}
	if l.Empty() || r.Empty() {
		return vUnknown
	}
	op := n.Op
	// Normalize > and >= by swapping operands.
	if op == expr.OpGt {
		l, r, op = r, l, expr.OpLt
	} else if op == expr.OpGe {
		l, r, op = r, l, expr.OpLe
	}
	point := func(iv intervals.Interval) (float64, bool) {
		return iv.Lo, iv.Lo == iv.Hi && !iv.LoOpen && !iv.HiOpen
	}
	switch op {
	case expr.OpEq:
		if l.Intersect(r).Empty() {
			return vFalse
		}
		if lp, ok := point(l); ok {
			if rp, ok := point(r); ok && lp == rp {
				return vTrue
			}
		}
		return vUnknown
	case expr.OpNe:
		if l.Intersect(r).Empty() {
			return vTrue
		}
		if lp, ok := point(l); ok {
			if rp, ok := point(r); ok && lp == rp {
				return vFalse
			}
		}
		return vUnknown
	case expr.OpLt:
		if l.Hi < r.Lo {
			return vTrue
		}
		if l.Lo >= r.Hi {
			return vFalse
		}
		return vUnknown
	case expr.OpLe:
		if l.Hi <= r.Lo {
			return vTrue
		}
		if l.Lo > r.Hi {
			return vFalse
		}
		return vUnknown
	default:
		return vUnknown
	}
}

// conjUnsat refines a conjunction: single-variable atoms contribute
// interval sets per variable; if any variable's combined set — intersected
// with its store range — is empty, the conjunction cannot hold.
func conjUnsat(e expr.Expr, look lookFn) bool {
	sets := make(map[expr.VarID]intervals.Set)
	collectAtoms(e, sets)
	for id, set := range sets {
		iv, ok := look(id)
		if !ok {
			continue
		}
		if set.Intersect(intervals.FromInterval(iv)).Empty() {
			return true
		}
	}
	return false
}

// collectAtoms gathers the single-variable atoms of a conjunction into
// per-variable interval sets, intersecting repeated constraints. Bare
// Boolean references contribute {1} and their negations {0}.
func collectAtoms(e expr.Expr, out map[expr.VarID]intervals.Set) {
	add := func(id expr.VarID, set intervals.Set) {
		if cur, seen := out[id]; seen {
			out[id] = cur.Intersect(set)
		} else {
			out[id] = set
		}
	}
	switch n := e.(type) {
	case *expr.Binary:
		if n.Op == expr.OpAnd {
			collectAtoms(n.L, out)
			collectAtoms(n.R, out)
			return
		}
		if id, set, ok := atomSet(n); ok {
			add(id, set)
		}
	case *expr.Ref:
		add(n.ID, intervals.FromInterval(intervals.Point(1)))
	case *expr.Unary:
		if n.Op == expr.OpNot {
			if ref, ok := n.X.(*expr.Ref); ok {
				add(ref.ID, intervals.FromInterval(intervals.Point(0)))
			}
		}
	}
}

// atomSet recognizes `x OP c` and `c OP x` atoms and returns the set of x
// values satisfying them. Boolean literals participate via the 0/1
// encoding.
func atomSet(b *expr.Binary) (expr.VarID, intervals.Set, bool) {
	op := b.Op
	ref, isL := b.L.(*expr.Ref)
	lit, litOK := b.R.(*expr.Lit)
	if !isL || !litOK {
		// Try the mirrored form c OP x.
		lit, litOK = b.L.(*expr.Lit)
		ref, isL = b.R.(*expr.Ref)
		if !isL || !litOK {
			return expr.NoVar, intervals.Set{}, false
		}
		switch op {
		case expr.OpLt:
			op = expr.OpGt
		case expr.OpLe:
			op = expr.OpGe
		case expr.OpGt:
			op = expr.OpLt
		case expr.OpGe:
			op = expr.OpLe
		}
	}
	if ref.ID == expr.NoVar {
		return expr.NoVar, intervals.Set{}, false
	}
	lv := valInterval(lit.Val)
	c := lv.Lo
	var set intervals.Set
	switch op {
	case expr.OpLt:
		set = intervals.FromInterval(intervals.LessThan(c))
	case expr.OpLe:
		set = intervals.FromInterval(intervals.AtMost(c))
	case expr.OpGt:
		set = intervals.FromInterval(intervals.GreaterThan(c))
	case expr.OpGe:
		set = intervals.FromInterval(intervals.AtLeast(c))
	case expr.OpEq:
		set = intervals.FromInterval(intervals.Point(c))
	case expr.OpNe:
		set = intervals.FromInterval(intervals.Point(c)).Complement()
	default:
		return expr.NoVar, intervals.Set{}, false
	}
	return ref.ID, set, true
}

// divModFree reports whether the expression contains no division or
// modulo — i.e. its evaluation can never abort the run. A nil expression
// (guard "true") is trivially free.
func divModFree(e expr.Expr) bool {
	if e == nil {
		return true
	}
	free := true
	expr.Walk(e, func(n expr.Expr) {
		if b, ok := n.(*expr.Binary); ok && (b.Op == expr.OpDiv || b.Op == expr.OpMod) {
			free = false
		}
	})
	return free
}

// guaranteedDivZero reports whether evaluating e must abort with a
// division (or modulo) by zero: some Div/Mod node's divisor range is
// exactly {0} and the node is on every evaluation path (conservatively:
// not nested under a conditional).
func guaranteedDivZero(e expr.Expr, look lookFn) bool {
	switch n := e.(type) {
	case *expr.Unary:
		return guaranteedDivZero(n.X, look)
	case *expr.Binary:
		if guaranteedDivZero(n.L, look) {
			return true
		}
		// And/Or short-circuit: the right operand may never evaluate.
		if n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return false
		}
		if guaranteedDivZero(n.R, look) {
			return true
		}
		if n.Op == expr.OpDiv || n.Op == expr.OpMod {
			if r, ok := rangeOf(n.R, look); ok && !r.Empty() && r.Lo == 0 && r.Hi == 0 && !r.LoOpen && !r.HiOpen {
				return true
			}
		}
		return false
	case *expr.Cond:
		return guaranteedDivZero(n.If, look)
	default:
		return false
	}
}
