package ctmc

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/sta"
)

// twoState returns 0 --λ--> 1 with state 1 the goal.
func twoState(lambda float64) *CTMC {
	return &CTMC{
		Edges:   [][]Edge{{{To: 1, Rate: lambda}}, nil},
		Initial: []float64{1, 0},
		Goal:    []bool{false, true},
	}
}

func TestReachTwoStateClosedForm(t *testing.T) {
	const lambda = 0.5
	c := twoState(lambda)
	for _, tb := range []float64{0, 0.1, 1, 5, 20} {
		got, err := c.ReachWithin(tb, 1e-10)
		if err != nil {
			t.Fatalf("ReachWithin(%v): %v", tb, err)
		}
		want := 1 - math.Exp(-lambda*tb)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("ReachWithin(%v) = %v, want %v", tb, got, want)
		}
	}
}

func TestReachErlangClosedForm(t *testing.T) {
	const lambda = 2.0
	c := &CTMC{
		Edges: [][]Edge{
			{{To: 1, Rate: lambda}},
			{{To: 2, Rate: lambda}},
			nil,
		},
		Initial: []float64{1, 0, 0},
		Goal:    []bool{false, false, true},
	}
	const tb = 1.5
	got, err := c.ReachWithin(tb, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-lambda*tb)*(1+lambda*tb)
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("Erlang reach = %v, want %v", got, want)
	}
}

func TestReachCompetingClosedForm(t *testing.T) {
	const a, b = 0.3, 0.7
	c := &CTMC{
		Edges: [][]Edge{
			{{To: 1, Rate: a}, {To: 2, Rate: b}},
			nil,
			nil,
		},
		Initial: []float64{1, 0, 0},
		Goal:    []bool{false, true, false},
	}
	const tb = 2.0
	got, err := c.ReachWithin(tb, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want := a / (a + b) * (1 - math.Exp(-(a+b)*tb))
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("competing reach = %v, want %v", got, want)
	}
}

func TestReachInitialGoalMass(t *testing.T) {
	c := &CTMC{
		Edges:   [][]Edge{nil, nil},
		Initial: []float64{0.25, 0.75},
		Goal:    []bool{true, false},
	}
	got, err := c.ReachWithin(10, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.25 {
		t.Errorf("reach = %v, want initial goal mass 0.25", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []*CTMC{
		{Edges: [][]Edge{nil}, Initial: []float64{0.5}, Goal: []bool{false}},              // mass != 1
		{Edges: [][]Edge{nil}, Initial: []float64{1}, Goal: []bool{}},                     // length mismatch
		{Edges: [][]Edge{{{To: 5, Rate: 1}}}, Initial: []float64{1}, Goal: []bool{false}}, // bad target
		{Edges: [][]Edge{{{To: 0, Rate: 0}}}, Initial: []float64{1}, Goal: []bool{false}}, // zero rate
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := twoState(1).ReachWithin(-1, 0); err == nil {
		t.Error("negative time bound should be rejected")
	}
}

// TestReachRejectsHugeHorizons: a bound whose Poisson truncation point
// overflows, or exceeds the step cap, is an error rather than a silent 0,
// and so is a bound that is not a number.
func TestReachRejectsHugeHorizons(t *testing.T) {
	c := twoState(0.5)
	for _, tc := range []struct {
		t    float64
		want string
	}{
		{1e19, "λ·t = 5e+18 needs more than the 100000000-step cap"},
		{1e300, "λ·t = 5e+299"},
		{math.Inf(1), "finite"},
		{math.NaN(), "finite"},
	} {
		p, err := c.ReachWithin(tc.t, 1e-10)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReachWithin(%v) = %v, %v; want an error containing %q", tc.t, p, err, tc.want)
		}
	}
	// A large horizon below the cap still solves.
	if p, err := c.ReachWithin(2e5, 1e-10); err != nil || p < 1-1e-9 {
		t.Errorf("ReachWithin(2e5) = %v, %v; want ≈1, nil", p, err)
	}
}

func TestUniformizationSteps(t *testing.T) {
	for _, tc := range []struct {
		lt   float64
		want int
	}{{0, 120}, {3, 143}, {1e6, 1020100}} {
		if got, err := UniformizationSteps(tc.lt); err != nil || got != tc.want {
			t.Errorf("UniformizationSteps(%v) = %d, %v; want %d", tc.lt, got, err, tc.want)
		}
	}
	for _, lt := range []float64{-1, math.NaN(), math.Inf(1), 1e8, 1e19} {
		if got, err := UniformizationSteps(lt); err == nil {
			t.Errorf("UniformizationSteps(%v) = %d, want an error", lt, got)
		}
	}
}

// buildNet assembles a failure/repair process with an immediate monitor:
// failures occur at rate λ and repairs at rate μ; the monitor immediately
// raises an alarm (a vanishing hop) on the first failure.
func buildNet(t *testing.T, lambda, mu float64) *network.Runtime {
	t.Helper()
	failedID, alarmID := expr.VarID(0), expr.VarID(1)
	failure := &sta.Process{
		Name:      "unit",
		Locations: []sta.Location{{Name: "ok"}, {Name: "failed"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Rate: lambda,
				Effects: []sta.Assignment{{Var: failedID, Name: "failed", Expr: expr.True()}}},
			{From: 1, To: 0, Action: sta.Tau, Rate: mu,
				Effects: []sta.Assignment{{Var: failedID, Name: "failed", Expr: expr.False()}}},
		},
		Vars: []expr.VarID{failedID},
	}
	monitor := &sta.Process{
		Name:      "monitor",
		Locations: []sta.Location{{Name: "watch"}, {Name: "raised"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau,
				Guard:   expr.Var("failed", failedID),
				Effects: []sta.Assignment{{Var: alarmID, Name: "alarm", Expr: expr.True()}}},
		},
		Vars: []expr.VarID{alarmID},
	}
	net := &sta.Network{
		Processes: []*sta.Process{failure, monitor},
		Vars: []sta.VarDecl{
			{Name: "failed", Type: expr.BoolType(), Init: expr.BoolVal(false)},
			{Name: "alarm", Type: expr.BoolType(), Init: expr.BoolVal(false)},
		},
	}
	rt, err := network.New(net)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestBuildEliminatesVanishingStates(t *testing.T) {
	const lambda, mu = 0.4, 2.0
	rt := buildNet(t, lambda, mu)
	res, err := Build(rt, expr.Var("alarm", 1), 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if res.Vanishing == 0 {
		t.Error("expected vanishing states from the immediate monitor hop")
	}
	// The alarm goes up exactly at the first failure:
	// P(alarm by t) = 1 − e^{−λt}.
	const tb = 3.0
	got, err := res.Chain.ReachWithin(tb, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-lambda*tb)
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("P(alarm by %v) = %v, want %v", tb, got, want)
	}
}

func TestBuildRejectsTimedModels(t *testing.T) {
	p := &sta.Process{
		Name:      "timed",
		Locations: []sta.Location{{Name: "s"}},
		Initial:   0,
		Vars:      []expr.VarID{0},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars:      []sta.VarDecl{{Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)}},
	}
	rt, err := network.New(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(rt, expr.True(), 0); err == nil || !strings.Contains(err.Error(), "timed") {
		t.Errorf("expected timed-variable rejection, got %v", err)
	}
}

func TestBuildRejectsImmediateCycles(t *testing.T) {
	flip := expr.VarID(0)
	p := &sta.Process{
		Name:      "loop",
		Locations: []sta.Location{{Name: "a"}, {Name: "b"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Guard: expr.True(),
				Effects: []sta.Assignment{{Var: flip, Name: "f", Expr: expr.Not(expr.Var("f", flip))}}},
			{From: 1, To: 0, Action: sta.Tau, Guard: expr.True(),
				Effects: []sta.Assignment{{Var: flip, Name: "f", Expr: expr.Not(expr.Var("f", flip))}}},
		},
		Vars: []expr.VarID{flip},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars:      []sta.VarDecl{{Name: "f", Type: expr.BoolType(), Init: expr.BoolVal(false)}},
	}
	rt, err := network.New(net)
	if err != nil {
		t.Fatal(err)
	}
	// The error names the state by its text key (location a, f false),
	// not by the builder's compact key.
	if _, err := Build(rt, expr.Var("f", flip), 0); err == nil || !strings.Contains(err.Error(), "cycle of immediate transitions through state 0|f") {
		t.Errorf("expected immediate-cycle error at state 0|f, got %v", err)
	}
}

func TestBuildStateLimit(t *testing.T) {
	rt := buildNet(t, 1, 1)
	if _, err := Build(rt, expr.Var("alarm", 1), 1); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("expected state-limit error, got %v", err)
	}
}

// TestOverflowKeyPrefixIsTextKey: with room for the initial state only,
// the first failure resolves (through the monitor's immediate hop) to the
// tangible state with both processes in location 1 and both flags set,
// and the overflow reports that state by its text key.
func TestOverflowKeyPrefixIsTextKey(t *testing.T) {
	rt := buildNet(t, 1, 1)
	_, err := Build(rt, expr.Var("alarm", 1), 1)
	var of *OverflowError
	if !errors.As(err, &of) {
		t.Fatalf("expected *OverflowError, got %v", err)
	}
	if of.KeyPrefix != "1,1|t,t" {
		t.Errorf("KeyPrefix = %q, want the text key \"1,1|t,t\"", of.KeyPrefix)
	}
	if of.Limit != 1 || of.Explored != 3 || of.Vanishing != 1 {
		t.Errorf("overflow counters = limit %d, explored %d, vanishing %d; want 1, 3, 1", of.Limit, of.Explored, of.Vanishing)
	}
	if !strings.Contains(of.Error(), "overflowed at state 1,1|t,t...") {
		t.Errorf("error text %q does not print the text key", of.Error())
	}
}

// fanOutNet is one process whose Markovian step from s enters a hub
// location with four always-enabled immediate branches, each leading to a
// different tangible location that returns to s at its own rate. The hub
// therefore resolves to four tangible outcomes at once.
func fanOutNet(t *testing.T) *network.Runtime {
	t.Helper()
	locs := []sta.Location{{Name: "s"}, {Name: "hub"}}
	trans := []sta.Transition{{From: 0, To: 1, Action: sta.Tau, Rate: 1}}
	for i := 0; i < 4; i++ {
		to := sta.LocID(len(locs))
		locs = append(locs, sta.Location{Name: "branch" + string(rune('a'+i))})
		trans = append(trans,
			sta.Transition{From: 1, To: to, Action: sta.Tau, Guard: expr.True()},
			sta.Transition{From: to, To: 0, Action: sta.Tau, Rate: float64(i + 1)})
	}
	p := &sta.Process{Name: "fan", Locations: locs, Initial: 0, Transitions: trans}
	rt, err := network.New(&sta.Network{Processes: []*sta.Process{p}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestBuildDeterministicNumbering: a vanishing state with several
// tangible outcomes hands them back in first-reach order, so state
// numbering and edges are a pure function of the model. Fifty rebuilds
// must give identical chains.
func TestBuildDeterministicNumbering(t *testing.T) {
	rt := fanOutNet(t)
	first, err := Build(rt, expr.False(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := first.Chain.NumStates(); n != 5 {
		t.Fatalf("chain has %d states, want 5", n)
	}
	// First-reach order: s, then the branches in transition order, so
	// branch i (state i+1) returns to s at rate i+1.
	for i := 0; i < 4; i++ {
		want := []Edge{{To: 0, Rate: float64(i + 1)}}
		if got := first.Chain.Edges[i+1]; !reflect.DeepEqual(got, want) {
			t.Fatalf("edges of state %d = %+v, want %+v", i+1, got, want)
		}
	}
	for i := 0; i < 50; i++ {
		again, err := Build(rt, expr.False(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Chain, again.Chain) {
			t.Fatalf("rebuild %d differs:\n%+v\nvs\n%+v", i, first.Chain, again.Chain)
		}
	}
}
