package symmetry_test

import (
	"fmt"
	"testing"

	"slimsim/internal/network"
	"slimsim/internal/symmetry"
)

// BenchmarkBuildQuotient is the counter-abstracted Table I build at N=8
// and at N=12, the size perfbench's table1-exact workload runs: detection
// runs once per size, the timed loop is BuildQuotient alone.
func BenchmarkBuildQuotient(b *testing.B) {
	for _, n := range []int{8, 12} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rt, goal := sensorFilter(b, n)
			red := symmetry.Detect(rt)
			if red == nil {
				b.Fatal("no symmetry detected")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := symmetry.BuildQuotient(rt, red, goal, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildQuotientAllocs gates the allocation profile of a quotient build
// on the sensor filter at N=6. The build runs on the CTMC builder's
// scratch, so what is left per state is its compact key and its resolved
// distribution; the budget has ~30% headroom over the measured count
// (862, Go 1.24, linux/amd64).
func TestBuildQuotientAllocs(t *testing.T) {
	rt, goal := sensorFilter(t, 6)
	red := symmetry.Detect(rt)
	if red == nil {
		t.Fatal("no symmetry detected")
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := symmetry.BuildQuotient(rt, red, goal, 0); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1120
	if avg > budget {
		t.Errorf("allocs per BuildQuotient: %.0f, want at most %d", avg, budget)
	}
	t.Logf("allocs per BuildQuotient: %.0f (budget %d)", avg, budget)
}

// TestCanonAllocs gates the canonicalizer, which the quotient build calls
// for every discovered state: once its scratch buffers have warmed up,
// canonicalizing must not allocate, including on states whose replicas it
// reorders.
func TestCanonAllocs(t *testing.T) {
	rt, _ := sensorFilter(t, 12)
	red := symmetry.Detect(rt)
	if red == nil {
		t.Fatal("no symmetry detected")
	}
	sc := rt.NewScratch()
	init := rt.NewState()
	if err := sc.InitialStateInto(&init); err != nil {
		t.Fatal(err)
	}
	// The initial state and its successors: each fails one replica, which
	// Canon moves to the front or back of the group.
	states := []network.State{init}
	markovian := movesOf(sc, &init).Markovian
	for i := range markovian {
		succ := rt.NewState()
		if err := sc.ApplyInto(&succ, &init, markovian[i]); err != nil {
			t.Fatal(err)
		}
		states = append(states, succ)
	}
	c := red.NewCanonicalizer()
	tmp := rt.NewState()
	reordered := 0
	for i := range states {
		tmp.CopyFrom(&states[i])
		c.Canon(&tmp)
		if tmp.Key() != states[i].Key() {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("no state was reordered: the gate would not cover the permuting path")
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := range states {
			tmp.CopyFrom(&states[i])
			c.Canon(&tmp)
		}
	})
	if avg != 0 {
		t.Errorf("Canon allocates %.1f objects per %d states, want 0", avg, len(states))
	}
}
