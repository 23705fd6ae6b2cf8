package ctmc

import (
	"fmt"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/slim"
	"slimsim/internal/sta"
)

// benchNetK assembles k independent failure/repair units, each watched by
// an immediate monitor that latches an alarm on the first failure: 3^k
// tangible states with a vanishing hop behind every first failure, the
// same tangible/vanishing mix Build faces on the benchmark families.
func benchNetK(tb testing.TB, k int) (*network.Runtime, expr.Expr) {
	tb.Helper()
	var procs []*sta.Process
	var decls []sta.VarDecl
	goal := expr.Expr(expr.True())
	for i := 0; i < k; i++ {
		failedID := expr.VarID(2 * i)
		alarmID := expr.VarID(2*i + 1)
		failedName := "failed" + string(rune('a'+i))
		alarmName := "alarm" + string(rune('a'+i))
		procs = append(procs, &sta.Process{
			Name:      "unit" + string(rune('a'+i)),
			Locations: []sta.Location{{Name: "ok"}, {Name: "failed"}},
			Initial:   0,
			Transitions: []sta.Transition{
				{From: 0, To: 1, Action: sta.Tau, Rate: 0.4,
					Effects: []sta.Assignment{{Var: failedID, Name: failedName, Expr: expr.True()}}},
				{From: 1, To: 0, Action: sta.Tau, Rate: 2.0,
					Effects: []sta.Assignment{{Var: failedID, Name: failedName, Expr: expr.False()}}},
			},
			Vars: []expr.VarID{failedID},
		}, &sta.Process{
			Name:      "monitor" + string(rune('a'+i)),
			Locations: []sta.Location{{Name: "watch"}, {Name: "raised"}},
			Initial:   0,
			Transitions: []sta.Transition{
				{From: 0, To: 1, Action: sta.Tau,
					Guard:   expr.Var(failedName, failedID),
					Effects: []sta.Assignment{{Var: alarmID, Name: alarmName, Expr: expr.True()}}},
			},
			Vars: []expr.VarID{alarmID},
		})
		decls = append(decls,
			sta.VarDecl{Name: failedName, Type: expr.BoolType(), Init: expr.BoolVal(false)},
			sta.VarDecl{Name: alarmName, Type: expr.BoolType(), Init: expr.BoolVal(false)})
		goal = expr.And(goal, expr.Var(alarmName, alarmID))
	}
	rt, err := network.New(&sta.Network{Processes: procs, Vars: decls})
	if err != nil {
		tb.Fatal(err)
	}
	return rt, goal
}

func BenchmarkBuild(b *testing.B) {
	rt, goal := benchNetK(b, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Build(rt, goal, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Vanishing == 0 {
			b.Fatal("expected vanishing states")
		}
	}
}

// sensorFilterNet instantiates the Table I sensor-filter model with n
// replicas, unpruned, plus its goal.
func sensorFilterNet(tb testing.TB, n int) (*network.Runtime, expr.Expr) {
	tb.Helper()
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
	if err != nil {
		tb.Fatal(err)
	}
	parsed, err := slim.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	built, err := model.Instantiate(parsed)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := network.New(built.Net)
	if err != nil {
		tb.Fatal(err)
	}
	goal, err := built.CompileExpr(casestudy.SensorFilterGoal)
	if err != nil {
		tb.Fatal(err)
	}
	return rt, goal
}

// BenchmarkBuildSensorFilter is the explicit Table I build at N=4 (255
// tangible states behind 990 vanishing ones) and at N=6, the size class of
// the perfbench table1-exact p90. Its filter state is integer-valued,
// unlike the Boolean units of BenchmarkBuild.
func BenchmarkBuildSensorFilter(b *testing.B) {
	for _, n := range []int{4, 6} {
		rt, goal := sensorFilterNet(b, n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(rt, goal, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocs gates the allocation profile of a full Build on the
// reference net. Moves are composed into per-depth move sets, successors
// are written into per-depth scratch states and tangible states are kept
// as compact keys, so what is left per state is its key, its resolved
// distribution and its edges. The budget has ~30% headroom over the
// measured count (1627, Go 1.24, linux/amd64); letting per-visit scratch
// escape to the heap again, or rendering labels, blows through it.
func TestBuildAllocs(t *testing.T) {
	rt, goal := benchNetK(t, 5)
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Build(rt, goal, 0); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 2100
	if avg > budget {
		t.Errorf("allocs per Build: %.0f, want at most %d", avg, budget)
	}
	t.Logf("allocs per Build: %.0f (budget %d)", avg, budget)
}

// TestStateKeyAllocs gates the compact key round trip the builder runs per
// visited state: encoding into a warm buffer and decoding into a scratch
// state must not allocate.
func TestStateKeyAllocs(t *testing.T) {
	rt, _ := sensorFilterNet(t, 4)
	st := rt.NewState()
	if err := rt.NewScratch().InitialStateInto(&st); err != nil {
		t.Fatal(err)
	}
	kinds := slotKinds(rt)
	buf := appendStateKey(nil, &st)
	key := string(buf)
	dst := rt.NewState()
	avg := testing.AllocsPerRun(200, func() {
		buf = appendStateKey(buf[:0], &st)
		if err := decodeStateKey(&dst, key, kinds); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("state key encode+decode allocates %.1f objects, want 0", avg)
	}
	if dst.Key() != st.Key() {
		t.Errorf("decoded state %s, want %s", dst.Key(), st.Key())
	}
}
