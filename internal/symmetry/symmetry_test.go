package symmetry_test

import (
	"math"
	"strings"
	"testing"

	"slimsim/internal/bisim"
	"slimsim/internal/casestudy"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/slim"
	"slimsim/internal/sta"
	"slimsim/internal/symmetry"
)

// load instantiates SLIM source into a runtime plus compiled goal.
func load(t testing.TB, src, goalSrc string) (*network.Runtime, expr.Expr) {
	t.Helper()
	parsed, err := slim.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	built, err := model.Instantiate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := network.New(built.Net)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := built.CompileExpr(goalSrc)
	if err != nil {
		t.Fatal(err)
	}
	return rt, goal
}

// movesOf composes st's move set into a fresh set.
func movesOf(sc *network.Scratch, st *network.State) *network.MoveSet {
	var ms network.MoveSet
	sc.Moves(&ms, st)
	return &ms
}

func sensorFilter(t testing.TB, n int) (*network.Runtime, expr.Expr) {
	t.Helper()
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
	if err != nil {
		t.Fatal(err)
	}
	return load(t, src, casestudy.SensorFilterGoal)
}

func TestDetectSensorFilter(t *testing.T) {
	rt, goal := sensorFilter(t, 4)
	red := symmetry.Detect(rt)
	if red == nil {
		t.Fatal("no symmetry detected on the sensor-filter family")
	}
	if len(red.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(red.Groups))
	}
	if got := len(red.Groups[0].Units); got != 4 {
		t.Fatalf("units = %d, want 4", got)
	}
	// Each unit holds the sensor, the filter and both error processes.
	if got := len(red.Groups[0].Units[0].Procs); got < 2 {
		t.Errorf("unit has %d processes, want the full replica channel", got)
	}
	if !red.Invariant(goal) {
		t.Error("goal mon.down should be permutation-invariant")
	}
	// A per-replica goal is not invariant.
	parsed, _ := slim.Parse(mustSensorFilterSrc(t, 4))
	built, _ := model.Instantiate(parsed)
	g1, err := built.CompileExpr("mon.sval1 > 5")
	if err != nil {
		t.Fatal(err)
	}
	if red.Invariant(g1) {
		t.Error("per-replica goal wrongly certified invariant")
	}
}

func mustSensorFilterSrc(t *testing.T, n int) string {
	t.Helper()
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestDetectRejectsAsymmetricRates breaks one replica's failure rate: the
// proposal still fires but the certificate must reject the group.
func TestDetectRejectsAsymmetricRates(t *testing.T) {
	src := mustSensorFilterSrc(t, 3)
	tampered := strings.Replace(src, "poisson 0.01;", "poisson 0.011;", 1)
	if tampered == src {
		t.Fatal("tamper did not apply")
	}
	// The replace hits the shared error model declaration, which scales
	// every sensor alike — instead vary a single extension by renaming
	// nothing and instead tampering a per-replica injected constant.
	tampered = strings.Replace(src, "inject failed: val := 6;", "inject failed: val := 7;", 1)
	rt, _ := load(t, tampered, casestudy.SensorFilterGoal)
	if red := symmetry.Detect(rt); red != nil {
		t.Fatalf("asymmetric model wrongly certified: %d groups", len(red.Groups))
	}
}

// TestQuotientMatchesExplicit is the heart of the difftest tier: on sizes
// where both flows build, the quotient chain's lumped ReachWithin must
// match the explicit chain's to 1e-12.
func TestQuotientMatchesExplicit(t *testing.T) {
	for n := 2; n <= 5; n++ {
		rt, goal := sensorFilter(t, n)
		red := symmetry.Detect(rt)
		if red == nil {
			t.Fatalf("n=%d: no symmetry detected", n)
		}
		qr, err := symmetry.BuildQuotient(rt, red, goal, 1<<20)
		if err != nil {
			t.Fatalf("n=%d: quotient: %v", n, err)
		}
		er, err := ctmc.Build(rt, goal, 1<<20)
		if err != nil {
			t.Fatalf("n=%d: explicit: %v", n, err)
		}
		if qr.Chain.NumStates() >= er.Chain.NumStates() {
			t.Errorf("n=%d: quotient has %d states, explicit %d — no collapse",
				n, qr.Chain.NumStates(), er.Chain.NumStates())
		}
		lq, err := bisim.Lump(qr.Chain)
		if err != nil {
			t.Fatalf("n=%d: lump quotient: %v", n, err)
		}
		le, err := bisim.Lump(er.Chain)
		if err != nil {
			t.Fatalf("n=%d: lump explicit: %v", n, err)
		}
		if lq.Blocks != le.Blocks {
			t.Errorf("n=%d: quotient lumps to %d blocks, explicit to %d", n, lq.Blocks, le.Blocks)
		}
		const bound = 150
		pq, err := lq.Quotient.ReachWithin(bound, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := le.Quotient.ReachWithin(bound, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(pq - pe); d > 1e-12 {
			t.Errorf("n=%d: |quotient - explicit| = %g > 1e-12 (%.15f vs %.15f)", n, d, pq, pe)
		}
	}
}

// TestQuotientScalesPolynomially drives the quotient well past the
// explicit flow's practical ceiling: counter states grow like C(n+3,3),
// not 4^n.
func TestQuotientScalesPolynomially(t *testing.T) {
	rt, goal := sensorFilter(t, 12)
	red := symmetry.Detect(rt)
	if red == nil {
		t.Fatal("no symmetry detected")
	}
	qr, err := symmetry.BuildQuotient(rt, red, goal, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Chain.NumStates() > 2000 {
		t.Errorf("quotient has %d states at n=12, expected counter-vector growth (≤2000)", qr.Chain.NumStates())
	}
	p, err := qr.Chain.ReachWithin(150, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 1 {
		t.Errorf("implausible probability %g", p)
	}
}

// TestCanonicalizeIdempotent: canonicalization is a projection — applying
// it twice equals applying it once — and preserves the goal label.
func TestCanonicalizeIdempotent(t *testing.T) {
	rt, goal := sensorFilter(t, 3)
	red := symmetry.Detect(rt)
	if red == nil {
		t.Fatal("no symmetry detected")
	}
	c := red.NewCanonicalizer()
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatal(err)
	}
	// Walk a few enabled moves to leave the (trivially symmetric)
	// initial state, canonicalizing as the builder would. Moves returns
	// structural candidates; guards are checked via EnabledAt. Each step
	// fires the first enabled τ move in process and transition order, or
	// failing that the first enabled synchronized move.
	for range 4 {
		cm := movesOf(sc, &st)
		var pick *network.Move
		for _, moves := range [][]*network.Move{cm.Guarded, cm.Markovian} {
			for i := range moves {
				m := moves[i]
				if on, err := sc.EnabledAt(&st, m); err != nil || !on {
					continue
				}
				if pick == nil || m.Action == sta.Tau && (pick.Action != sta.Tau ||
					m.Parts[0].Proc < pick.Parts[0].Proc ||
					m.Parts[0].Proc == pick.Parts[0].Proc && m.Parts[0].Trans < pick.Parts[0].Trans) {
					pick = m
				}
			}
		}
		if pick == nil {
			break
		}
		next := rt.NewState()
		if err := sc.ApplyInto(&next, &st, pick); err != nil {
			t.Fatal(err)
		}
		st = next
		before, err := expr.EvalBool(goal, sc.Env(&st))
		if err != nil {
			t.Fatal(err)
		}
		c.Canon(&st)
		once := st.Key()
		after, err := expr.EvalBool(goal, sc.Env(&st))
		if err != nil {
			t.Fatal(err)
		}
		if before != after {
			t.Fatal("canonicalization changed the goal label")
		}
		c.Canon(&st)
		if st.Key() != once {
			t.Fatal("canonicalization is not idempotent")
		}
	}
}
