package network

import (
	"slices"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/sta"
)

// Variable IDs of dirtyNet. The diamond's sink f3 is declared before its
// inputs, so only the topological order evaluates it correctly.
const (
	dA  expr.VarID = iota // int, written by p
	dB                    // int, written by q
	dX                    // clock
	dC                    // continuous, rate 1 in p0 and 3 in p1
	dZ                    // int, never written
	dF3                   // f1 + f2
	dF1                   // a + 1
	dF2                   // a * 2
	dG                    // a + b
	dFX                   // x * 2
	dFC                   // c + 1
	dFZ                   // z * 3
)

// dirtyNet builds a network whose flow graph holds every shape dirty-flow
// propagation must get right: a diamond (a → f1 → f3, a → f2 → f3), a flow
// over the inputs of both parts of a synchronized move (g = a + b), a flow
// over a clock, a flow over a continuous variable whose rate depends on the
// location, and a flow over a variable no effect ever writes.
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
			}},
		},
		Vars:     []expr.VarID{dB},
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
	for i := range rt.flowProgs {
		if s[i>>6]&(1<<(i&63)) != 0 {
			out = append(out, rt.flowProgs[i].id)
		}
	}
	return out
}

// TestDirtySets pins the dirty set of every transition and of a delay on
// dirtyNet: each is exactly the flows downstream of what it writes, in
// topological order, and the flow over the never-written z is in none.
func TestDirtySets(t *testing.T) {
	rt := dirtyNet(t)
	diamond := []expr.VarID{dF1, dF2, dF3}
	want := map[[2]int][]expr.VarID{
		{0, 0}: append(slices.Clone(diamond), dG, dFX), // a := a+1, x := 0
		{0, 1}: append(slices.Clone(diamond), dG),      // a := a+2
		{1, 0}: {dG},                                   // b := b+1
		{2, 0}: nil,                                    // writes nothing
	}
	for pt, w := range want {
		got := flowVars(rt, rt.procProgs[pt[0]].trans[pt[1]].dirty)
		if !sameSet(got, w) {
			t.Errorf("dirty set of process %d transition %d = %v, want %v", pt[0], pt[1], got, w)
		}
		if !inOrder(rt, got) {
			t.Errorf("dirty set of process %d transition %d = %v is not in evaluation order", pt[0], pt[1], got)
		}
	}
	if got := flowVars(rt, rt.timedFlows); !sameSet(got, []expr.VarID{dFX, dFC}) {
		t.Errorf("timed flows = %v, want fx and fc", got)
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
// full re-propagation, and against the flows' closed forms.
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
		x, c := cur.Vals[dX].Real(), cur.Vals[dC].Real()
		if cur.Vals[dF3].Int() != 3*a+1 || cur.Vals[dG].Int() != a+b ||
			cur.Vals[dFX].Real() != 2*x || cur.Vals[dFC].Real() != c+1 || cur.Vals[dFZ].Int() != 15 {
			t.Fatalf("step %d: flows %s disagree with their closed forms", k, cur.Key())
		}
	}
	if fired["s"] == 0 || fired["markovian"] == 0 || fired[sta.Tau] == fired["markovian"] {
		t.Fatalf("walk missed a move kind: %v", fired)
	}
	// AdvanceInto(d=0) returns before propagating, so it is not counted.
	if n := checked.Load(); n < 300 {
		t.Errorf("checked %d successors, want at least 300", n)
	}
}
