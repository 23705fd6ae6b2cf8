package network

import (
	"runtime"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/expr"
	"slimsim/internal/model"
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
	if err := rt.NewScratch(0).InitialStateInto(&st); err != nil {
		tb.Fatalf("InitialStateInto: %v", err)
	}
	return rt, st
}

func BenchmarkMoves(b *testing.B) {
	rt, st := benchNet(b)
	sc := rt.NewScratch(0)
	sc.Moves(&st) // warm the cache: steady state is all hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cm := sc.Moves(&st); len(cm.Guarded)+len(cm.Markovian) == 0 {
			b.Fatal("no moves")
		}
	}
}

func BenchmarkAdvanceApply(b *testing.B) {
	rt, st := benchNet(b)
	sc := rt.NewScratch(0)
	cm := sc.Moves(&st)
	nxt := rt.NewState()
	cur := st.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.AdvanceInto(&nxt, &cur, 1); err != nil {
			b.Fatal(err)
		}
		if err := sc.ApplyInto(&cur, &nxt, &cm.Guarded[0]); err != nil {
			b.Fatal(err)
		}
		cm = sc.Moves(&cur)
	}
}

// TestMovesCacheHitAllocs gates the move-memoization fast path: a cache hit
// must not allocate.
func TestMovesCacheHitAllocs(t *testing.T) {
	rt, st := benchNet(t)
	sc := rt.NewScratch(0)
	sc.Moves(&st)
	avg := testing.AllocsPerRun(200, func() {
		sc.Moves(&st)
	})
	if avg != 0 {
		t.Errorf("Moves cache hit allocates %.1f objects per call, want 0", avg)
	}
	hits, misses := sc.CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache counters not moving: hits=%d misses=%d", hits, misses)
	}
}

// TestAdvanceApplyAllocs gates the pooled successor construction: timed and
// discrete steps into preallocated states must not allocate.
func TestAdvanceApplyAllocs(t *testing.T) {
	rt, st := benchNet(t)
	sc := rt.NewScratch(0)
	cm := sc.Moves(&st)
	nxt := rt.NewState()
	cur := st.Clone()
	avg := testing.AllocsPerRun(200, func() {
		if err := sc.AdvanceInto(&nxt, &cur, 1); err != nil {
			t.Fatal(err)
		}
		if err := sc.ApplyInto(&cur, &nxt, &cm.Guarded[0]); err != nil {
			t.Fatal(err)
		}
		cm = sc.Moves(&cur)
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
	sc := rt.NewScratch(0)
	init, out := rt.NewState(), rt.NewState()
	if err := sc.InitialStateInto(&init); err != nil {
		b.Fatal(err)
	}
	moves := sc.Moves(&init).Markovian
	if len(moves) == 0 {
		b.Fatal("no Markovian moves")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.ApplyInto(&out, &init, &moves[i%len(moves)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewScratchBytes gates the memory a fresh scratch costs before its
// first lookup. The move cache's capacity is an eviction bound, not a
// preallocation: on the launcher it is the 65 536-vector maximum, which
// presized would be a multi-megabyte table per scratch.
func TestNewScratchBytes(t *testing.T) {
	src, err := casestudy.Launcher(casestudy.DefaultLauncher(casestudy.FaultsPermanent))
	if err != nil {
		t.Fatal(err)
	}
	rt := loadSource(t, src)
	if got := autoCacheCap(rt); got != MaxMoveCacheCap {
		t.Fatalf("launcher cache capacity %d, want the %d maximum the gate is about", got, MaxMoveCacheCap)
	}
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if rt.NewScratch(0) == nil {
			t.Fatal("nil scratch")
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 64 << 10
	perScratch := (after.TotalAlloc - before.TotalAlloc) / runs
	if perScratch > budget {
		t.Errorf("NewScratch(0) allocates %d bytes, want at most %d", perScratch, budget)
	}
	t.Logf("NewScratch(0) allocates %d bytes (budget %d)", perScratch, budget)
}
