package network

import (
	"math"
	"slices"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/sta"
)

// Variable IDs of dirtyNet. The diamond's sink f3 is declared before its
// inputs, so only the topological order evaluates it correctly.
const (
	dA    expr.VarID = iota // int, written by p
	dB                      // int, written by q
	dX                      // clock
	dC                      // continuous, rate 1 in p0 and 3 in p1
	dZ                      // int, never written
	dF3                     // f1 + f2
	dF1                     // a + 1
	dF2                     // a * 2
	dG                      // a + b
	dFX                     // x * 2
	dFC                     // c + 1
	dFZ                     // z * 3
	dN                      // real, negated by q: 0, -0, 0, ...
	dFN2                    // fn * 1.0
	dFN                     // n * 2.0
	dCool                   // not hot
	dHot                    // c > 2.25
)

// dirtyNet builds a network whose flow graph holds every shape change-driven
// propagation must get right: a diamond (a → f1 → f3, a → f2 → f3), a flow
// over the inputs of both parts of a synchronized move (g = a + b), a flow
// over a clock, a flow over a continuous variable whose rate depends on the
// location, a flow over a variable no effect ever writes, a chain over a
// real that an effect flips between 0 and -0 (n → fn → fn2), and a Boolean
// flow over the continuous variable, which a delay flips only when c
// crosses 2.25 and an effect resets c to 0 (c → hot → cool).
func dirtyNet(t *testing.T) *Runtime {
	t.Helper()
	v := func(name string, id expr.VarID) expr.Expr { return expr.Var(name, id) }
	i := func(n int64) expr.Expr { return expr.Literal(expr.IntVal(n)) }
	r := func(x float64) expr.Expr { return expr.Literal(expr.RealVal(x)) }
	p := &sta.Process{
		Name: "p",
		Locations: []sta.Location{
			{Name: "p0", Rates: map[expr.VarID]float64{dC: 1}},
			{Name: "p1", Rates: map[expr.VarID]float64{dC: 3}},
		},
		Initial: 0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Effects: []sta.Assignment{
				{Var: dA, Name: "a", Expr: expr.Bin(expr.OpAdd, v("a", dA), i(1))},
				{Var: dX, Name: "x", Expr: r(0)},
			}},
			{From: 1, To: 0, Action: "s", Effects: []sta.Assignment{
				{Var: dA, Name: "a", Expr: expr.Bin(expr.OpAdd, v("a", dA), i(2))},
				{Var: dC, Name: "c", Expr: r(0)},
			}},
		},
		Vars:     []expr.VarID{dA, dX, dC},
		Alphabet: map[string]struct{}{"s": {}},
	}
	q := &sta.Process{
		Name:      "q",
		Locations: []sta.Location{{Name: "q0"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 0, Action: "s", Effects: []sta.Assignment{
				{Var: dB, Name: "b", Expr: expr.Bin(expr.OpAdd, v("b", dB), i(1))},
				{Var: dN, Name: "n", Expr: expr.Neg(v("n", dN))},
			}},
		},
		Vars:     []expr.VarID{dB, dN},
		Alphabet: map[string]struct{}{"s": {}},
	}
	// A Markovian self-loop that writes nothing.
	m := &sta.Process{
		Name:        "m",
		Locations:   []sta.Location{{Name: "m0"}},
		Initial:     0,
		Transitions: []sta.Transition{{From: 0, To: 0, Action: sta.Tau, Rate: 1}},
	}
	flow := func(name string, typ expr.Type, init expr.Value, e expr.Expr) sta.VarDecl {
		return sta.VarDecl{Name: name, Type: typ, Init: init, Flow: true, FlowExpr: e}
	}
	net := &sta.Network{
		Processes: []*sta.Process{p, q, m},
		Vars: []sta.VarDecl{
			dA:  {Name: "a", Type: expr.IntType(), Init: expr.IntVal(0)},
			dB:  {Name: "b", Type: expr.IntType(), Init: expr.IntVal(0)},
			dX:  {Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)},
			dC:  {Name: "c", Type: expr.ContinuousType(), Init: expr.RealVal(0)},
			dZ:  {Name: "z", Type: expr.IntType(), Init: expr.IntVal(5)},
			dF3: flow("f3", expr.IntType(), expr.IntVal(0), expr.Bin(expr.OpAdd, v("f1", dF1), v("f2", dF2))),
			dF1: flow("f1", expr.IntType(), expr.IntVal(0), expr.Bin(expr.OpAdd, v("a", dA), i(1))),
			dF2: flow("f2", expr.IntType(), expr.IntVal(0), expr.Bin(expr.OpMul, v("a", dA), i(2))),
			dG:  flow("g", expr.IntType(), expr.IntVal(0), expr.Bin(expr.OpAdd, v("a", dA), v("b", dB))),
			dFX: flow("fx", expr.RealType(), expr.RealVal(0), expr.Bin(expr.OpMul, v("x", dX), r(2))),
			dFC: flow("fc", expr.RealType(), expr.RealVal(0), expr.Bin(expr.OpAdd, v("c", dC), r(1))),
			dFZ: flow("fz", expr.IntType(), expr.IntVal(0), expr.Bin(expr.OpMul, v("z", dZ), i(3))),
			dN:  {Name: "n", Type: expr.RealType(), Init: expr.RealVal(0)},
			dFN2: flow("fn2", expr.RealType(), expr.RealVal(0),
				expr.Bin(expr.OpMul, v("fn", dFN), r(1))),
			dFN:   flow("fn", expr.RealType(), expr.RealVal(0), expr.Bin(expr.OpMul, v("n", dN), r(2))),
			dCool: flow("cool", expr.BoolType(), expr.BoolVal(false), expr.Not(v("hot", dHot))),
			dHot: flow("hot", expr.BoolType(), expr.BoolVal(false),
				expr.Bin(expr.OpGt, v("c", dC), r(2.25))),
		},
	}
	rt, err := New(net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt
}

// flowVars lists the variables of the flows set in s, in evaluation order.
func flowVars(rt *Runtime, s bitset) []expr.VarID {
	var out []expr.VarID
	s.each(func(i int) { out = append(out, rt.flowProgs[i].id) })
	return out
}

// TestDirtySets pins, on dirtyNet, the direct readers of every variable,
// which steps propagate through, and the closures construction builds from
// them: per transition and for a delay, exactly the flows downstream of
// what it writes, in topological order. The flow over the never-written z
// is in no closure.
func TestDirtySets(t *testing.T) {
	rt := dirtyNet(t)
	readers := map[expr.VarID][]expr.VarID{
		dA: {dF1, dF2, dG}, dB: {dG}, dX: {dFX}, dC: {dFC, dHot}, dZ: {dFZ},
		dF1: {dF3}, dF2: {dF3}, dN: {dFN}, dFN: {dFN2}, dHot: {dCool},
	}
	for v := range rt.net.Vars {
		got := flowVars(rt, rt.readers[v])
		if !sameSet(got, readers[expr.VarID(v)]) {
			t.Errorf("readers of %s = %v, want %v", rt.net.Vars[v].Name, got, readers[expr.VarID(v)])
		}
	}
	trans, timed := rt.downstream()
	diamond := []expr.VarID{dF1, dF2, dF3}
	want := map[[2]int][]expr.VarID{
		{0, 0}: append(slices.Clone(diamond), dG, dFX),              // a := a+1, x := 0
		{0, 1}: append(slices.Clone(diamond), dG, dFC, dHot, dCool), // a := a+2, c := 0
		{1, 0}: {dG, dFN, dFN2},                                     // b := b+1, n := -n
		{2, 0}: nil,                                                 // writes nothing
	}
	for pt, w := range want {
		got := flowVars(rt, trans[pt[0]][pt[1]])
		if !sameSet(got, w) {
			t.Errorf("closure of process %d transition %d = %v, want %v", pt[0], pt[1], got, w)
		}
		if !inOrder(rt, got) {
			t.Errorf("closure of process %d transition %d = %v is not in evaluation order", pt[0], pt[1], got)
		}
	}
	if got := flowVars(rt, timed); !sameSet(got, []expr.VarID{dFX, dFC, dHot, dCool}) {
		t.Errorf("timed flows = %v, want fx, fc, hot and cool", got)
	}
}

func sameSet(a, b []expr.VarID) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// inOrder reports whether ids follow rt's topological flow order.
func inOrder(rt *Runtime, ids []expr.VarID) bool {
	pos := func(id expr.VarID) int {
		return slices.IndexFunc(rt.flowProgs, func(fp flowProg) bool { return fp.id == id })
	}
	for k := 1; k < len(ids); k++ {
		if pos(ids[k-1]) >= pos(ids[k]) {
			return false
		}
	}
	return true
}

// TestDirtyFlowsMatchFullPropagation walks dirtyNet through every kind of
// step (a one-part move writing the diamond's source and the clock, the
// two-part synchronized move, the Markovian move writing nothing, delays
// in both rate locations) and holds every successor bit for bit against a
// full re-propagation, and against the flows' closed forms. The walk must
// see hot flip both ways and n hold -0: a cutoff that compared values with
// == or Equal would leave fn2 at +0 and cool stale.
func TestDirtyFlowsMatchFullPropagation(t *testing.T) {
	rt := dirtyNet(t)
	checked := rt.CheckFlowsOnEveryStep()
	sc := rt.NewScratch()
	cur, nxt := rt.NewState(), rt.NewState()
	if err := sc.InitialStateInto(&cur); err != nil {
		t.Fatal(err)
	}
	delays := []float64{0.5, 0, 1.25, 2}
	fired := map[string]int{}
	flips, negZeros := 0, 0
	hot := false
	for k := 0; k < 200; k++ {
		if err := sc.AdvanceInto(&nxt, &cur, delays[k%len(delays)]); err != nil {
			t.Fatalf("step %d: advance: %v", k, err)
		}
		cur, nxt = nxt, cur
		cm := movesOf(sc, &cur)
		moves := append(slices.Clone(cm.Guarded), cm.Markovian...)
		m := moves[k%len(moves)]
		if err := sc.ApplyInto(&nxt, &cur, m); err != nil {
			t.Fatalf("step %d: apply: %v", k, err)
		}
		cur, nxt = nxt, cur
		fired[m.Action]++
		if m.Markovian() {
			fired["markovian"]++
		}
		a, b := cur.Vals[dA].Int(), cur.Vals[dB].Int()
		x, c, n := cur.Vals[dX].Real(), cur.Vals[dC].Real(), cur.Vals[dN].Real()
		if cur.Vals[dF3].Int() != 3*a+1 || cur.Vals[dG].Int() != a+b ||
			cur.Vals[dFX].Real() != 2*x || cur.Vals[dFC].Real() != c+1 || cur.Vals[dFZ].Int() != 15 ||
			math.Signbit(n) != (b%2 == 1) || !cur.Vals[dFN2].Identical(expr.RealVal(2*n)) ||
			cur.Vals[dHot].Bool() != (c > 2.25) || cur.Vals[dCool].Bool() == (c > 2.25) {
			t.Fatalf("step %d: flows %s disagree with their closed forms", k, cur.Key())
		}
		if cur.Vals[dHot].Bool() != hot {
			hot = !hot
			flips++
		}
		if math.Signbit(n) {
			negZeros++
		}
	}
	if fired["s"] == 0 || fired["markovian"] == 0 || fired[sta.Tau] == fired["markovian"] {
		t.Fatalf("walk missed a move kind: %v", fired)
	}
	if flips < 2 || negZeros == 0 {
		t.Fatalf("hot flipped %d times and n held -0 after %d steps, want at least 2 and 1", flips, negZeros)
	}
	// AdvanceInto(d=0) returns before propagating, so it is not counted.
	if n := checked.Load(); n < 300 {
		t.Errorf("checked %d successors, want at least 300", n)
	}
}

// TestFailedStepLeavesNothingPending fails ApplyInto once in a flow and once
// in an effect, each after the step has marked flows to recompute, and
// checks that the scratch is left with nothing pending: the next steps on
// it run exactly the flows their own writes reach, and agree with full
// propagation.
func TestFailedStepLeavesNothingPending(t *testing.T) {
	const (
		k   expr.VarID = iota // int, 1 initially
		z                     // int, 0
		m                     // int, target of the failing effect
		x                     // clock
		inv                   // 10 / k, fails when k = 0
		k2                    // k * 2
		fx                    // x * 2.0
	)
	v := func(name string, id expr.VarID) expr.Expr { return expr.Var(name, id) }
	i := func(n int64) expr.Expr { return expr.Literal(expr.IntVal(n)) }
	flow := func(name string, typ expr.Type, e expr.Expr) sta.VarDecl {
		return sta.VarDecl{Name: name, Type: typ, Init: typ.Default(), Flow: true, FlowExpr: e}
	}
	p := &sta.Process{
		Name:      "p",
		Locations: []sta.Location{{Name: "p0"}},
		Transitions: []sta.Transition{
			// k := 0 marks inv and k2; inv fails first.
			{Action: sta.Tau, Effects: []sta.Assignment{{Var: k, Name: "k", Expr: i(0)}}},
			// k := k + 1 marks inv and k2; the next effect fails.
			{Action: sta.Tau, Effects: []sta.Assignment{
				{Var: k, Name: "k", Expr: expr.Bin(expr.OpAdd, v("k", k), i(1))},
				{Var: m, Name: "m", Expr: expr.Bin(expr.OpDiv, i(1), v("z", z))},
			}},
			{Action: sta.Tau, Effects: []sta.Assignment{{Var: k, Name: "k", Expr: expr.Bin(expr.OpAdd, v("k", k), i(1))}}},
		},
		Vars: []expr.VarID{k, z, m, x},
	}
	// A Markovian self-loop that writes nothing.
	r := &sta.Process{
		Name:        "r",
		Locations:   []sta.Location{{Name: "r0"}},
		Transitions: []sta.Transition{{Action: sta.Tau, Rate: 1}},
	}
	rt, err := New(&sta.Network{
		Processes: []*sta.Process{p, r},
		Vars: []sta.VarDecl{
			k:   {Name: "k", Type: expr.IntType(), Init: expr.IntVal(1)},
			z:   {Name: "z", Type: expr.IntType(), Init: expr.IntVal(0)},
			m:   {Name: "m", Type: expr.IntType(), Init: expr.IntVal(0)},
			x:   {Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)},
			inv: flow("inv", expr.IntType(), expr.Bin(expr.OpDiv, i(10), v("k", k))),
			k2:  flow("k2", expr.IntType(), expr.Bin(expr.OpMul, v("k", k), i(2))),
			fx:  flow("fx", expr.RealType(), expr.Bin(expr.OpMul, v("x", x), expr.Literal(expr.RealVal(2)))),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := rt.CheckFlowsOnEveryStep()
	runs := rt.CountFlowRuns()
	sc := rt.NewScratch()
	cur, nxt := rt.NewState(), rt.NewState()
	if err := sc.InitialStateInto(&cur); err != nil {
		t.Fatal(err)
	}
	move := func(ti int) *Move { return &Move{Action: sta.Tau, Parts: []Part{{Proc: 0, Trans: ti}}} }
	markovian := &Move{Action: sta.Tau, Parts: []Part{{Proc: 1, Trans: 0}}, Rate: 1}
	// step runs one successful step and checks how many flow programs it
	// ran, besides the three of the check hook's full propagation.
	step := func(name string, want int64, do func() error) {
		t.Helper()
		before := runs.Load()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := runs.Load() - before - 3; got != want {
			t.Errorf("%s ran %d flow programs, want %d", name, got, want)
		}
		cur, nxt = nxt, cur
	}
	for _, ti := range []int{0, 1} {
		if err := sc.ApplyInto(&nxt, &cur, move(ti)); err == nil {
			t.Fatalf("transition %d: ApplyInto succeeded, want a division by zero", ti)
		}
		for w, word := range sc.env.pending {
			if word != 0 {
				t.Fatalf("transition %d: pending word %d = %#x after the failed step", ti, w, word)
			}
		}
		step("the Markovian move", 0, func() error { return sc.ApplyInto(&nxt, &cur, markovian) })
		step("a delay", 1, func() error { return sc.AdvanceInto(&nxt, &cur, 0.5) })
		step("k := k + 1", 2, func() error { return sc.ApplyInto(&nxt, &cur, move(2)) })
	}
	if n := checked.Load(); n != 6 {
		t.Errorf("checked %d successors, want 6", n)
	}
}
