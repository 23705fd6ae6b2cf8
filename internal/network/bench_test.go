package network

import (
	"math"
	"runtime"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/rng"
	"slimsim/internal/slim"
	"slimsim/internal/sta"
)

// benchNet builds a two-process timed model exercising the hot runtime
// paths: a clock with invariant and guard window, a Boolean effect, and a
// Markovian competitor.
func benchNet(tb testing.TB) (*Runtime, State) {
	tb.Helper()
	xID, mID := expr.VarID(0), expr.VarID(1)
	x := func() expr.Expr { return expr.Var("x", xID) }
	timer := &sta.Process{
		Name: "timer",
		Locations: []sta.Location{
			{Name: "wait", Invariant: expr.Bin(expr.OpLe, x(), expr.Literal(expr.RealVal(2)))},
			{Name: "fire", Invariant: expr.Bin(expr.OpLe, x(), expr.Literal(expr.RealVal(2)))},
		},
		Initial: 0,
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau,
				Guard: expr.Bin(expr.OpGe, x(), expr.Literal(expr.RealVal(1))),
				Effects: []sta.Assignment{
					{Var: xID, Name: "x", Expr: expr.Literal(expr.RealVal(0))},
					{Var: mID, Name: "m", Expr: expr.True()},
				}},
			{From: 1, To: 0, Action: sta.Tau,
				Guard: expr.Bin(expr.OpGe, x(), expr.Literal(expr.RealVal(1))),
				Effects: []sta.Assignment{
					{Var: xID, Name: "x", Expr: expr.Literal(expr.RealVal(0))},
					{Var: mID, Name: "m", Expr: expr.False()},
				}},
		},
		Vars: []expr.VarID{xID, mID},
	}
	breaker := &sta.Process{
		Name:        "breaker",
		Locations:   []sta.Location{{Name: "up"}, {Name: "down"}},
		Initial:     0,
		Transitions: []sta.Transition{{From: 0, To: 1, Action: sta.Tau, Rate: 0.01}},
	}
	net := &sta.Network{
		Processes: []*sta.Process{timer, breaker},
		Vars: []sta.VarDecl{
			{Name: "x", Type: expr.ClockType(), Init: expr.RealVal(0)},
			{Name: "m", Type: expr.BoolType(), Init: expr.BoolVal(false)},
		},
	}
	rt, err := New(net)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	st := rt.NewState()
	if err := rt.NewScratch().InitialStateInto(&st); err != nil {
		tb.Fatalf("InitialStateInto: %v", err)
	}
	return rt, st
}

// walk is a set of states visited by a random walk through one runtime.
type walk struct {
	name   string
	rt     *Runtime
	states []State
}

// walkStates collects n states of a random walk through rt: each step fires
// a uniformly chosen candidate among the guarded moves enabled now and the
// Markovian moves or, with none, lets half the invariants' allowance (at
// most one time unit) pass. A walk that can neither fire nor delay restarts
// from the initial state.
func walkStates(tb testing.TB, name string, rt *Runtime, n int) walk {
	tb.Helper()
	sc := rt.NewScratch()
	src := rng.New(1)
	init, cur, nxt := rt.NewState(), rt.NewState(), rt.NewState()
	if err := sc.InitialStateInto(&init); err != nil {
		tb.Fatal(err)
	}
	cur.CopyFrom(&init)
	var ms MoveSet
	var cands []*Move
	w := walk{name: name, rt: rt, states: make([]State, 0, n)}
	for len(w.states) < n {
		w.states = append(w.states, cur.Clone())
		sc.Moves(&ms, &cur)
		cands = cands[:0]
		for _, m := range ms.Guarded {
			ok, err := sc.EnabledAt(&cur, m)
			if err != nil {
				tb.Fatal(err)
			}
			if ok {
				cands = append(cands, m)
			}
		}
		cands = append(cands, ms.Markovian...)
		d, _, _, err := sc.MaxDelay(&cur)
		switch {
		case err != nil:
		case len(cands) > 0:
			err = sc.ApplyInto(&nxt, &cur, cands[src.Choose(len(cands))])
		case d > 0:
			err = sc.AdvanceInto(&nxt, &cur, math.Min(d, 2)/2)
		default:
			nxt.CopyFrom(&init)
		}
		if err != nil {
			tb.Fatal(err)
		}
		cur, nxt = nxt, cur
	}
	return w
}

// moveWalks returns n walked states of the launcher (permanent faults) and
// of the Table I sensor filter at N=7, the models of the benchmark's
// sampling workloads.
func moveWalks(tb testing.TB, n int) []walk {
	tb.Helper()
	launcher, err := casestudy.Launcher(casestudy.DefaultLauncher(casestudy.FaultsPermanent))
	if err != nil {
		tb.Fatal(err)
	}
	filter, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(7))
	if err != nil {
		tb.Fatal(err)
	}
	return []walk{
		walkStates(tb, "launcher", loadSource(tb, launcher), n),
		walkStates(tb, "sensorfilter-7", loadSource(tb, filter), n),
	}
}

// BenchmarkMoves measures one move-set composition into a warm set,
// cycling through 4096 walked states of the launcher and of the sensor
// filter at N=7.
func BenchmarkMoves(b *testing.B) {
	for _, w := range moveWalks(b, 4096) {
		b.Run(w.name, func(b *testing.B) {
			sc := w.rt.NewScratch()
			var ms MoveSet
			for i := range w.states {
				sc.Moves(&ms, &w.states[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Moves(&ms, &w.states[i%len(w.states)])
			}
		})
	}
}

// TestMovesAllocs gates move-set composition: once a set's arenas have
// grown, composing into it must not allocate, on the walked launcher and
// sensor-filter states and on orderNet's synchronized moves alike.
func TestMovesAllocs(t *testing.T) {
	sc, st := orderNet(t)
	walks := append(moveWalks(t, 512), walk{name: "order", rt: sc.rt, states: []State{st}})
	for _, w := range walks {
		sc := w.rt.NewScratch()
		var ms MoveSet
		compose := func() {
			for i := range w.states {
				sc.Moves(&ms, &w.states[i])
			}
		}
		compose()
		if w.name == "order" && len(ms.sync) == 0 {
			t.Fatal("orderNet composed no synchronized move")
		}
		if avg := testing.AllocsPerRun(10, compose); avg != 0 {
			t.Errorf("%s: composing %d states into a warm set allocates %.1f objects, want 0", w.name, len(w.states), avg)
		}
	}
}

func BenchmarkAdvanceApply(b *testing.B) {
	rt, st := benchNet(b)
	sc := rt.NewScratch()
	var ms MoveSet
	sc.Moves(&ms, &st)
	nxt := rt.NewState()
	cur := st.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.AdvanceInto(&nxt, &cur, 1); err != nil {
			b.Fatal(err)
		}
		if err := sc.ApplyInto(&cur, &nxt, ms.Guarded[0]); err != nil {
			b.Fatal(err)
		}
		sc.Moves(&ms, &cur)
	}
}

// TestAdvanceApplyAllocs gates the pooled successor construction: timed and
// discrete steps into preallocated states must not allocate.
func TestAdvanceApplyAllocs(t *testing.T) {
	rt, st := benchNet(t)
	sc := rt.NewScratch()
	var ms MoveSet
	sc.Moves(&ms, &st)
	nxt := rt.NewState()
	cur := st.Clone()
	avg := testing.AllocsPerRun(200, func() {
		if err := sc.AdvanceInto(&nxt, &cur, 1); err != nil {
			t.Fatal(err)
		}
		if err := sc.ApplyInto(&cur, &nxt, ms.Guarded[0]); err != nil {
			t.Fatal(err)
		}
		sc.Moves(&ms, &cur)
	})
	if avg != 0 {
		t.Errorf("advance+apply step allocates %.1f objects, want 0", avg)
	}
}

// TestAppendKeyAllocs gates the text key behind State.Key (zone unfolding
// and the CTMC builder's error messages): rendering into a reused buffer
// must not allocate once the buffer has warmed up.
func TestAppendKeyAllocs(t *testing.T) {
	_, st := benchNet(t)
	buf := st.AppendKey(nil)
	avg := testing.AllocsPerRun(200, func() {
		buf = st.AppendKey(buf[:0])
	})
	if avg != 0 {
		t.Errorf("AppendKey into warm buffer allocates %.1f objects, want 0", avg)
	}
}

// loadSource instantiates SLIM source into a runtime.
func loadSource(tb testing.TB, src string) *Runtime {
	tb.Helper()
	parsed, err := slim.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	built, err := model.Instantiate(parsed)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := New(built.Net)
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// BenchmarkApplySensorFilter measures one discrete successor on the Table I
// sensor filter at N=12 (84 flows): it cycles through the initial state's
// Markovian moves, each one replica's failure, whose effects feed two or
// three flows.
func BenchmarkApplySensorFilter(b *testing.B) {
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(12))
	if err != nil {
		b.Fatal(err)
	}
	rt := loadSource(b, src)
	sc := rt.NewScratch()
	init, out := rt.NewState(), rt.NewState()
	if err := sc.InitialStateInto(&init); err != nil {
		b.Fatal(err)
	}
	var ms MoveSet
	sc.Moves(&ms, &init)
	moves := ms.Markovian
	if len(moves) == 0 {
		b.Fatal("no Markovian moves")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.ApplyInto(&out, &init, moves[i%len(moves)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewScratchBytes gates the memory a fresh scratch costs: the move
// tables belong to the runtime, so a scratch is one environment, whatever
// the model's size.
func TestNewScratchBytes(t *testing.T) {
	src, err := casestudy.Launcher(casestudy.DefaultLauncher(casestudy.FaultsPermanent))
	if err != nil {
		t.Fatal(err)
	}
	rt := loadSource(t, src)
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if rt.NewScratch() == nil {
			t.Fatal("nil scratch")
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 64 << 10
	perScratch := (after.TotalAlloc - before.TotalAlloc) / runs
	if perScratch > budget {
		t.Errorf("NewScratch() allocates %d bytes, want at most %d", perScratch, budget)
	}
	t.Logf("NewScratch() allocates %d bytes (budget %d)", perScratch, budget)
}
