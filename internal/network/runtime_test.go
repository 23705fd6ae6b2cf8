package network

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"slimsim/internal/expr"
	"slimsim/internal/sta"
)

// gpsNet builds the paper's Listing-1 GPS automaton: a clock x, location
// acquisition with invariant x <= 120, a transition to active guarded by
// x >= 10 on action "activate" setting measurement := true.
func gpsNet(t *testing.T) (*Scratch, State) {
	t.Helper()
	xID, mID := expr.VarID(0), expr.VarID(1)
	p := &sta.Process{
		Name: "gps",
		Locations: []sta.Location{
			{Name: "acquisition", Invariant: expr.Bin(expr.OpLe, expr.Var("x", xID), expr.Literal(expr.RealVal(120)))},
			{Name: "active"},
		},
		Initial: 0,
		Transitions: []sta.Transition{
			{
				From: 0, To: 1, Action: "activate",
				Guard: expr.Bin(expr.OpGe, expr.Var("x", xID), expr.Literal(expr.RealVal(10))),
				Effects: []sta.Assignment{
					{Var: mID, Name: "measurement", Expr: expr.True()},
				},
			},
		},
		Vars:     []expr.VarID{xID, mID},
		Alphabet: map[string]struct{}{"activate": {}},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars: []sta.VarDecl{
			{Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)},
			{Name: "measurement", Type: expr.BoolType(), Init: expr.BoolVal(false)},
		},
	}
	rt, err := New(net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	return sc, st
}

// movesOf composes st's move set into a fresh set.
func movesOf(sc *Scratch, st *State) *MoveSet {
	var ms MoveSet
	sc.Moves(&ms, st)
	return &ms
}

func TestMaxDelayFromInvariant(t *testing.T) {
	sc, st := gpsNet(t)
	d, attained, nowOK, err := sc.MaxDelay(&st)
	if err != nil {
		t.Fatalf("MaxDelay: %v", err)
	}
	if d != 120 || !attained || !nowOK {
		t.Errorf("MaxDelay = (%v,%v,%v), want (120,true,true)", d, attained, nowOK)
	}

	// After advancing 50, only 70 remain.
	st2 := sc.rt.NewState()
	if err := sc.AdvanceInto(&st2, &st, 50); err != nil {
		t.Fatalf("AdvanceInto: %v", err)
	}
	if got := st2.Vals[0].Real(); got != 50 {
		t.Errorf("clock after advance = %v, want 50", got)
	}
	if st2.Time != 50 {
		t.Errorf("Time = %v, want 50", st2.Time)
	}
	d, _, _, err = sc.MaxDelay(&st2)
	if err != nil {
		t.Fatalf("MaxDelay: %v", err)
	}
	if d != 70 {
		t.Errorf("remaining delay = %v, want 70", d)
	}
}

func TestGuardWindowAndApply(t *testing.T) {
	sc, st := gpsNet(t)
	cm := movesOf(sc, &st)
	if len(cm.Guarded) != 1 || len(cm.Markovian) != 0 {
		t.Fatalf("Moves = %d guarded, %d Markovian, want 1 guarded", len(cm.Guarded), len(cm.Markovian))
	}
	m := cm.Guarded[0]
	if m.Action != "activate" || m.Markovian() {
		t.Errorf("unexpected move %+v", m)
	}

	w, err := sc.Window(&st, m)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	// Guard x >= 10 with x(d) = d: window [10, inf); the invariant bound
	// (120) is applied by callers.
	if !w.Contains(10) || w.Contains(9.99) || !w.Contains(1000) {
		t.Errorf("guard window = %v, want [10,inf)", w)
	}

	ok, err := sc.EnabledAt(&st, m)
	if err != nil || ok {
		t.Errorf("EnabledAt initially = (%v,%v), want (false,nil)", ok, err)
	}

	st2 := sc.rt.NewState()
	if err := sc.AdvanceInto(&st2, &st, 15); err != nil {
		t.Fatalf("AdvanceInto: %v", err)
	}
	ok, err = sc.EnabledAt(&st2, m)
	if err != nil || !ok {
		t.Errorf("EnabledAt after 15 = (%v,%v), want (true,nil)", ok, err)
	}

	st3 := sc.rt.NewState()
	if err := sc.ApplyInto(&st3, &st2, m); err != nil {
		t.Fatalf("ApplyInto: %v", err)
	}
	if st3.Locs[0] != 1 {
		t.Errorf("location after apply = %v, want 1 (active)", st3.Locs[0])
	}
	if !st3.Vals[1].Bool() {
		t.Error("measurement should be true after apply")
	}
}

// syncNet builds two processes that must synchronize on action "go", where
// the second has two alternative go-transitions.
func syncNet(t *testing.T) (*Scratch, State) {
	t.Helper()
	a := &sta.Process{
		Name:      "a",
		Locations: []sta.Location{{Name: "s"}, {Name: "t"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: "go"},
		},
		Alphabet: map[string]struct{}{"go": {}},
	}
	b := &sta.Process{
		Name:      "b",
		Locations: []sta.Location{{Name: "s"}, {Name: "t"}, {Name: "u"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: "go"},
			{From: 0, To: 2, Action: "go"},
			{From: 0, To: 2, Action: sta.Tau, Guard: expr.False()},
		},
		Alphabet: map[string]struct{}{"go": {}},
	}
	net := &sta.Network{Processes: []*sta.Process{a, b}}
	rt, err := New(net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	return sc, st
}

func TestSynchronizedMoves(t *testing.T) {
	sc, st := syncNet(t)
	cm := movesOf(sc, &st)
	if len(cm.Markovian) != 0 {
		t.Errorf("%d Markovian moves, want none", len(cm.Markovian))
	}
	moves := cm.Guarded
	// 1 τ move (from b) + 2 synchronized combinations.
	var tau, sync int
	for i := range moves {
		if moves[i].Action == sta.Tau {
			tau++
		} else {
			sync++
			if len(moves[i].Parts) != 2 {
				t.Errorf("sync move has %d parts, want 2", len(moves[i].Parts))
			}
		}
	}
	if tau != 1 || sync != 2 {
		t.Errorf("got %d τ and %d sync moves, want 1 and 2", tau, sync)
	}

	// Applying a sync move advances both processes.
	for i := range moves {
		if moves[i].Action != "go" {
			continue
		}
		st2 := sc.rt.NewState()
		if err := sc.ApplyInto(&st2, &st, moves[i]); err != nil {
			t.Fatalf("ApplyInto: %v", err)
		}
		if st2.Locs[0] != 1 {
			t.Errorf("process a at %v, want 1", st2.Locs[0])
		}
		if st2.Locs[1] == 0 {
			t.Error("process b did not move")
		}
		break
	}
}

func TestSyncBlockedWhenPartnerCannot(t *testing.T) {
	sc, st := syncNet(t)
	// Move process a to its terminal location; "go" then has no
	// candidates from a, so no sync moves appear even though b has some.
	moves := movesOf(sc, &st).Guarded
	var goMove *Move
	for i := range moves {
		if moves[i].Action == "go" {
			goMove = moves[i]
			break
		}
	}
	st2 := sc.rt.NewState()
	if err := sc.ApplyInto(&st2, &st, goMove); err != nil {
		t.Fatalf("ApplyInto: %v", err)
	}
	cm := movesOf(sc, &st2)
	if len(cm.Markovian) != 0 {
		t.Errorf("%d Markovian moves, want none", len(cm.Markovian))
	}
	for _, m := range cm.Guarded {
		if m.Action == "go" {
			t.Errorf("unexpected sync move from %+v", st2.Locs)
		}
	}
}

func TestMarkovianMoves(t *testing.T) {
	p := &sta.Process{
		Name:      "err",
		Locations: []sta.Location{{Name: "ok"}, {Name: "failed"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Rate: 0.5},
			{From: 0, To: 0, Action: sta.Tau, Rate: 1.5},
		},
	}
	rt, err := New(&sta.Network{Processes: []*sta.Process{p}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	cm := movesOf(sc, &st)
	if len(cm.Guarded) != 0 {
		t.Errorf("%d guarded moves, want none", len(cm.Guarded))
	}
	moves := cm.Markovian
	if len(moves) != 2 {
		t.Fatalf("Markovian moves = %d, want 2", len(moves))
	}
	var total float64
	for i := range moves {
		if !moves[i].Markovian() {
			t.Errorf("move %d should be Markovian", i)
		}
		total += moves[i].Rate
	}
	if total != 2.0 {
		t.Errorf("total rate = %v, want 2", total)
	}
	d, attained, nowOK, err := sc.MaxDelay(&st)
	if err != nil {
		t.Fatalf("MaxDelay: %v", err)
	}
	if !math.IsInf(d, 1) || attained || !nowOK {
		t.Errorf("MaxDelay = (%v,%v,%v), want (+inf,false,true)", d, attained, nowOK)
	}
}

func TestFlowPropagation(t *testing.T) {
	// sensor.out (int) --> filter.in = sensor.out * gain
	outID, gainID, inID := expr.VarID(0), expr.VarID(1), expr.VarID(2)
	p := &sta.Process{
		Name:      "sensor",
		Locations: []sta.Location{{Name: "on"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 0, Action: sta.Tau, Guard: expr.True(),
				Effects: []sta.Assignment{{Var: outID, Name: "out", Expr: expr.Literal(expr.IntVal(4))}}},
		},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars: []sta.VarDecl{
			{Name: "out", Type: expr.IntType(), Init: expr.IntVal(2)},
			{Name: "gain", Type: expr.IntType(), Init: expr.IntVal(3)},
			{Name: "in", Type: expr.IntType(), Init: expr.IntVal(0), Flow: true,
				FlowExpr: expr.Bin(expr.OpMul, expr.Var("out", outID), expr.Var("gain", gainID))},
		},
	}
	rt, err := New(net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	if got := st.Vals[inID].Int(); got != 6 {
		t.Errorf("initial flow value = %v, want 6", got)
	}
	st2 := rt.NewState()
	if err := sc.ApplyInto(&st2, &st, movesOf(sc, &st).Guarded[0]); err != nil {
		t.Fatalf("ApplyInto: %v", err)
	}
	if got := st2.Vals[inID].Int(); got != 12 {
		t.Errorf("flow value after effect = %v, want 12", got)
	}
}

func TestFlowCycleRejected(t *testing.T) {
	net := &sta.Network{
		Processes: []*sta.Process{{
			Name:      "p",
			Locations: []sta.Location{{Name: "s"}},
			Initial:   0,
		}},
		Vars: []sta.VarDecl{
			{Name: "a", Type: expr.IntType(), Init: expr.IntVal(0), Flow: true, FlowExpr: expr.Var("b", 1)},
			{Name: "b", Type: expr.IntType(), Init: expr.IntVal(0), Flow: true, FlowExpr: expr.Var("a", 0)},
		},
	}
	if _, err := New(net); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("expected cyclic-dependency error, got %v", err)
	}
}

func TestEffectAssignToFlowRejected(t *testing.T) {
	net := &sta.Network{
		Processes: []*sta.Process{{
			Name:      "p",
			Locations: []sta.Location{{Name: "s"}},
			Initial:   0,
			Transitions: []sta.Transition{
				{From: 0, To: 0, Action: sta.Tau, Guard: expr.True(),
					Effects: []sta.Assignment{{Var: 0, Name: "f", Expr: expr.Literal(expr.IntVal(1))}}},
			},
		}},
		Vars: []sta.VarDecl{
			{Name: "f", Type: expr.IntType(), Init: expr.IntVal(0), Flow: true, FlowExpr: expr.Literal(expr.IntVal(5))},
		},
	}
	if _, err := New(net); err == nil || !strings.Contains(err.Error(), "flow") {
		t.Errorf("expected flow-assignment error, got %v", err)
	}
}

func TestContinuousTrajectory(t *testing.T) {
	// Battery: energy continuous, rate -2 while discharging.
	eID := expr.VarID(0)
	p := &sta.Process{
		Name: "battery",
		Locations: []sta.Location{
			{
				Name:      "discharging",
				Invariant: expr.Bin(expr.OpGe, expr.Var("energy", eID), expr.Literal(expr.RealVal(0))),
				Rates:     map[expr.VarID]float64{eID: -2},
			},
			{Name: "empty"},
		},
		Initial: 0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau,
				Guard: expr.Bin(expr.OpLe, expr.Var("energy", eID), expr.Literal(expr.RealVal(0)))},
		},
		Vars: []expr.VarID{eID},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars: []sta.VarDecl{
			{Name: "energy", Type: expr.ContinuousType(), Init: expr.RealVal(100)},
		},
	}
	rt, err := New(net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	// energy(d) = 100 - 2d >= 0 until d = 50.
	d, attained, nowOK, err := sc.MaxDelay(&st)
	if err != nil {
		t.Fatalf("MaxDelay: %v", err)
	}
	if d != 50 || !attained || !nowOK {
		t.Errorf("MaxDelay = (%v,%v,%v), want (50,true,true)", d, attained, nowOK)
	}
	st2 := rt.NewState()
	if err := sc.AdvanceInto(&st2, &st, 50); err != nil {
		t.Fatalf("AdvanceInto: %v", err)
	}
	if got := st2.Vals[eID].Real(); got != 0 {
		t.Errorf("energy after 50 = %v, want 0", got)
	}
	deplete := movesOf(sc, &st2).Guarded[0]
	ok, err := sc.EnabledAt(&st2, deplete)
	if err != nil || !ok {
		t.Errorf("deplete transition should be enabled at boundary: (%v,%v)", ok, err)
	}
	// In the empty location the rate defaults to 0.
	st3 := rt.NewState()
	if err := sc.ApplyInto(&st3, &st2, deplete); err != nil {
		t.Fatalf("ApplyInto: %v", err)
	}
	st4 := rt.NewState()
	if err := sc.AdvanceInto(&st4, &st3, 10); err != nil {
		t.Fatalf("AdvanceInto: %v", err)
	}
	if got := st4.Vals[eID].Real(); got != 0 {
		t.Errorf("energy should stay 0 in empty location, got %v", got)
	}
}

func TestUrgentLocationBlocksTime(t *testing.T) {
	p := &sta.Process{
		Name:      "u",
		Locations: []sta.Location{{Name: "now", Urgent: true}, {Name: "done"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Guard: expr.True()},
		},
	}
	rt, err := New(&sta.Network{Processes: []*sta.Process{p}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	d, attained, nowOK, err := sc.MaxDelay(&st)
	if err != nil {
		t.Fatalf("MaxDelay: %v", err)
	}
	if d != 0 || !attained || !nowOK {
		t.Errorf("MaxDelay in urgent = (%v,%v,%v), want (0,true,true)", d, attained, nowOK)
	}
}

func TestInvariantViolatedNow(t *testing.T) {
	xID := expr.VarID(0)
	p := &sta.Process{
		Name: "p",
		Locations: []sta.Location{
			{Name: "s", Invariant: expr.Bin(expr.OpLe, expr.Var("x", xID), expr.Literal(expr.RealVal(5)))},
		},
		Initial: 0,
		Vars:    []expr.VarID{xID},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars:      []sta.VarDecl{{Name: "x", Type: expr.ClockType(), Init: expr.RealVal(10)}},
	}
	rt, err := New(net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	_, _, nowOK, err := sc.MaxDelay(&st)
	if err != nil {
		t.Fatalf("MaxDelay: %v", err)
	}
	if nowOK {
		t.Error("invariant should be violated at the initial valuation")
	}
}

func TestTypeRangeEnforcedOnEffects(t *testing.T) {
	nID := expr.VarID(0)
	p := &sta.Process{
		Name:      "p",
		Locations: []sta.Location{{Name: "s"}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 0, Action: sta.Tau, Guard: expr.True(),
				Effects: []sta.Assignment{{Var: nID, Name: "n",
					Expr: expr.Bin(expr.OpAdd, expr.Var("n", nID), expr.Literal(expr.IntVal(1)))}}},
		},
		Vars: []expr.VarID{nID},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars:      []sta.VarDecl{{Name: "n", Type: expr.IntRangeType(0, 2), Init: expr.IntVal(0)}},
	}
	rt, err := New(net)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc := rt.NewScratch()
	st, next := rt.NewState(), rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	var applyErr error
	for i := 0; i < 5; i++ {
		if applyErr = sc.ApplyInto(&next, &st, movesOf(sc, &st).Guarded[0]); applyErr != nil {
			break
		}
		st, next = next, st
	}
	if applyErr == nil {
		t.Error("expected range violation after incrementing past 2")
	}
}

func TestMoveLabel(t *testing.T) {
	sc, st := gpsNet(t)
	label := movesOf(sc, &st).Guarded[0].Label(sc.rt)
	if !strings.Contains(label, "gps") || !strings.Contains(label, "acquisition") {
		t.Errorf("label %q should mention process and source location", label)
	}
}

// TestQuickAdvanceAdditivity checks the semilattice law of timed steps:
// advancing by a+b equals advancing by a then b, for all variable kinds.
func TestQuickAdvanceAdditivity(t *testing.T) {
	eID, xID, nID := expr.VarID(0), expr.VarID(1), expr.VarID(2)
	p := &sta.Process{
		Name: "p",
		Locations: []sta.Location{
			{Name: "run", Rates: map[expr.VarID]float64{eID: -0.5}},
		},
		Initial: 0,
		Vars:    []expr.VarID{eID, xID, nID},
	}
	net := &sta.Network{
		Processes: []*sta.Process{p},
		Vars: []sta.VarDecl{
			{Name: "e", Type: expr.ContinuousType(), Init: expr.RealVal(100)},
			{Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)},
			{Name: "n", Type: expr.IntType(), Init: expr.IntVal(7)},
		},
	}
	rt, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatal(err)
	}
	oneShot, step1, twoShot := rt.NewState(), rt.NewState(), rt.NewState()
	f := func(a8, b8 uint8) bool {
		a := float64(a8) / 16
		b := float64(b8) / 16
		err1 := sc.AdvanceInto(&oneShot, &st, a+b)
		err2 := sc.AdvanceInto(&step1, &st, a)
		err3 := sc.AdvanceInto(&twoShot, &step1, b)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range oneShot.Vals {
			x, y := oneShot.Vals[i], twoShot.Vals[i]
			if x.Kind() != y.Kind() {
				return false
			}
			if x.IsNumeric() && math.Abs(x.AsFloat()-y.AsFloat()) > 1e-9 {
				return false
			}
		}
		return math.Abs(oneShot.Time-twoShot.Time) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUrgentNow(t *testing.T) {
	p := &sta.Process{
		Name:      "p",
		Locations: []sta.Location{{Name: "calm"}, {Name: "rush", Urgent: true}},
		Initial:   0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Guard: expr.True()},
		},
	}
	rt, err := New(&sta.Network{Processes: []*sta.Process{p}})
	if err != nil {
		t.Fatal(err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatal(err)
	}
	if rt.UrgentNow(&st) {
		t.Error("initial location is not urgent")
	}
	st2 := rt.NewState()
	if err := sc.ApplyInto(&st2, &st, movesOf(sc, &st).Guarded[0]); err != nil {
		t.Fatal(err)
	}
	if !rt.UrgentNow(&st2) {
		t.Error("target location is urgent")
	}
}

// orderNet builds the network of TestMovesEnumerationOrder and its initial
// state: five processes with unrated and Markovian τ moves and two
// synchronized actions of several candidates per participant.
func orderNet(t *testing.T) (*Scratch, State) {
	t.Helper()
	proc := func(name string, actions ...string) *sta.Process {
		p := &sta.Process{
			Name:      name,
			Locations: []sta.Location{{Name: "s"}, {Name: "t"}},
			Alphabet:  map[string]struct{}{},
		}
		for _, a := range actions {
			p.Transitions = append(p.Transitions, sta.Transition{From: 0, To: 1, Action: a})
			if a != sta.Tau {
				p.Alphabet[a] = struct{}{}
			}
		}
		return p
	}
	// A location mixes no guarded and Markovian transitions, so the rated
	// moves get processes of their own.
	markov := func(name string, rates ...float64) *sta.Process {
		p := proc(name)
		for _, r := range rates {
			p.Transitions = append(p.Transitions, sta.Transition{From: 0, To: 1, Action: sta.Tau, Rate: r})
		}
		return p
	}
	net := &sta.Network{Processes: []*sta.Process{
		markov("m", 0.5, 1.5),
		proc("p", "x", "go", sta.Tau, "go"),
		proc("q", "go", "x", "go", "go"),
		proc("r", sta.Tau, "x", "x"),
		markov("n", 2),
	}}
	rt, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatal(err)
	}
	return sc, st
}

// TestMovesEnumerationOrder pins the composed order on orderNet. Guarded
// comes first: unrated τ moves by process and transition, then actions in
// sorted name order, each action's cross product with the first
// participant varying slowest. Markovian follows, by process and
// transition, although its first process precedes every other.
func TestMovesEnumerationOrder(t *testing.T) {
	sc, st := orderNet(t)
	var guarded []Move
	guarded = append(guarded,
		Move{Action: sta.Tau, Parts: []Part{{Proc: 1, Trans: 2}}},
		Move{Action: sta.Tau, Parts: []Part{{Proc: 3, Trans: 0}}})
	for _, p := range []int{1, 3} {
		for _, q := range []int{0, 2, 3} {
			guarded = append(guarded, Move{Action: "go", Parts: []Part{{Proc: 1, Trans: p}, {Proc: 2, Trans: q}}})
		}
	}
	for _, p := range []int{0} {
		for _, q := range []int{1} {
			for _, r := range []int{1, 2} {
				guarded = append(guarded, Move{Action: "x", Parts: []Part{{Proc: 1, Trans: p}, {Proc: 2, Trans: q}, {Proc: 3, Trans: r}}})
			}
		}
	}
	markovian := []Move{
		{Action: sta.Tau, Parts: []Part{{Proc: 0, Trans: 0}}, Rate: 0.5},
		{Action: sta.Tau, Parts: []Part{{Proc: 0, Trans: 1}}, Rate: 1.5},
		{Action: sta.Tau, Parts: []Part{{Proc: 4, Trans: 0}}, Rate: 2},
	}
	cm := movesOf(sc, &st)
	if cap(cm.Guarded) != len(cm.Guarded) {
		t.Fatalf("Guarded has spare capacity %d, so an append could overwrite Markovian", cap(cm.Guarded)-len(cm.Guarded))
	}
	for _, c := range []struct {
		name string
		got  []*Move
		want []Move
	}{{"guarded", cm.Guarded, guarded}, {"Markovian", cm.Markovian, markovian}} {
		got, want := c.got, c.want
		if len(got) != len(want) {
			t.Fatalf("%d %s moves, want %d: %+v", len(got), c.name, len(want), got)
		}
		for i := range want {
			if !sameMove(got[i], &want[i]) {
				t.Fatalf("%s move %d = %+v, want %+v", c.name, i, *got[i], want[i])
			}
			if cap(got[i].Parts) != len(got[i].Parts) {
				t.Fatalf("%s move %d: Parts has spare capacity %d, so an append could overwrite its neighbour", c.name, i, cap(got[i].Parts))
			}
		}
	}
}
