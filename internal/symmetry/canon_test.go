package symmetry_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"testing"

	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/sta"
	"slimsim/internal/symmetry"
)

// textKeyCanon is the reference canonicalization: render every unit as the
// byte key "l1,l2,…,|v1,v2,…," (locations in decimal, variables with
// AppendText), stably sort the units by key, and write the sorted
// configurations back slot-wise.
func textKeyCanon(groups []symmetry.Group, st *network.State) {
	for _, g := range groups {
		keys := make([]string, len(g.Units))
		order := make([]int, len(g.Units))
		for i, u := range g.Units {
			var buf []byte
			for _, p := range u.Procs {
				buf = strconv.AppendInt(buf, int64(st.Locs[p]), 10)
				buf = append(buf, ',')
			}
			buf = append(buf, '|')
			for _, v := range u.Vars {
				buf = st.Vals[v].AppendText(buf)
				buf = append(buf, ',')
			}
			keys[i], order[i] = string(buf), i
		}
		sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
		src := st.Clone()
		for i, o := range order {
			for k, p := range g.Units[i].Procs {
				st.Locs[p] = src.Locs[g.Units[o].Procs[k]]
			}
			for k, v := range g.Units[i].Vars {
				st.Vals[v] = src.Vals[g.Units[o].Vars[k]]
			}
		}
	}
}

// sameBits compares states field by field, reals by their bits, so -0 and
// 0 differ.
func sameBits(a, b *network.State) bool {
	for i := range a.Locs {
		if a.Locs[i] != b.Locs[i] {
			return false
		}
	}
	for i := range a.Vals {
		x, y := a.Vals[i], b.Vals[i]
		if x.Kind() == expr.KindReal && y.Kind() == expr.KindReal {
			if math.Float64bits(x.Real()) != math.Float64bits(y.Real()) {
				return false
			}
		} else if x != y {
			return false
		}
	}
	return true
}

func showState(st *network.State) string {
	s := fmt.Sprint(st.Locs, " [")
	for i, v := range st.Vals {
		if i > 0 {
			s += " "
		}
		s += string(v.AppendText(nil))
	}
	return s + "]"
}

// TestCanonOrderMatchesTextKeys pins the representative Canon picks to the
// text-key order, on hand-built groups whose values order differently as
// numbers and as text (ints 9/10, -1/-10, ≥100; locations ≥10; reals -0/0,
// 1e21, 1e-7), and on every state the sensor-filter quotient builds
// canonicalize at N=3…12.
func TestCanonOrderMatchesTextKeys(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		// Each pool leads with values whose numeric and text orders
		// disagree, so the narrow draws below pit them against each other.
		ints := []int64{9, 10, -1, -10, 100, 1, 0, 99, 101, 1000, -9, -100, math.MaxInt64, math.MinInt64}
		locs := []sta.LocID{9, 10, 100, 1, 11, 0, 19, 2}
		reals := []float64{math.Copysign(0, -1), 0, 1e21, 1e-7, 1e20, 1, 1.5, -1, 0.1, 1e-6, 2e21, -1e21, math.Inf(1), math.Inf(-1)}
		// Unit u of group 0 owns processes 2u, 2u+1 and int vars 3u, 3u+1
		// plus bool var 3u+2; unit u of group 1 owns process 2·units0+u and
		// real vars base+2u, base+2u+1.
		const units0, units1 = 6, 5
		var g0, g1 symmetry.Group
		for u := 0; u < units0; u++ {
			g0.Units = append(g0.Units, symmetry.Unit{
				Procs: []int{2 * u, 2*u + 1},
				Vars:  []expr.VarID{expr.VarID(3 * u), expr.VarID(3*u + 1), expr.VarID(3*u + 2)},
			})
		}
		base := 3 * units0
		for u := 0; u < units1; u++ {
			g1.Units = append(g1.Units, symmetry.Unit{
				Procs: []int{2*units0 + u},
				Vars:  []expr.VarID{expr.VarID(base + 2*u), expr.VarID(base + 2*u + 1)},
			})
		}
		groups := []symmetry.Group{g0, g1}
		c := (&symmetry.Reduction{Groups: groups}).NewCanonicalizer()

		r := rand.New(rand.NewPCG(1, 2))
		// pick draws from the first k entries of a pool: a small k makes
		// the leading slots tie, so later slots decide.
		pick := func(k int) int { return r.IntN(k) }
		reordered := 0
		for trial := 0; trial < 2000; trial++ {
			spread := 2 + trial%4
			st := network.State{
				Locs: make([]sta.LocID, 2*units0+units1),
				Vals: make([]expr.Value, base+2*units1),
			}
			for u := 0; u < units0; u++ {
				st.Locs[2*u] = locs[pick(spread)]
				st.Locs[2*u+1] = locs[pick(len(locs))]
				st.Vals[3*u] = expr.IntVal(ints[pick(2*spread)])
				st.Vals[3*u+1] = expr.IntVal(ints[pick(len(ints))])
				st.Vals[3*u+2] = expr.BoolVal(pick(2) == 0)
			}
			for u := 0; u < units1; u++ {
				st.Locs[2*units0+u] = locs[pick(spread)]
				st.Vals[base+2*u] = expr.RealVal(reals[pick(2*spread)])
				st.Vals[base+2*u+1] = expr.RealVal(reals[pick(len(reals))])
			}
			want := st.Clone()
			textKeyCanon(groups, &want)
			if !sameBits(&want, &st) {
				reordered++
			}
			// Every orbit member, by a random permutation of each group,
			// has the same representative.
			for m := 0; m < 4; m++ {
				member := st.Clone()
				for _, g := range groups {
					perm := r.Perm(len(g.Units))
					src := member.Clone()
					for i, o := range perm {
						for k, p := range g.Units[i].Procs {
							member.Locs[p] = src.Locs[g.Units[o].Procs[k]]
						}
						for k, v := range g.Units[i].Vars {
							member.Vals[v] = src.Vals[g.Units[o].Vars[k]]
						}
					}
				}
				in := showState(&member)
				c.Canon(&member)
				if !sameBits(&member, &want) {
					t.Fatalf("trial %d: Canon(%s) = %s, text-key order gives %s", trial, in, showState(&member), showState(&want))
				}
			}
		}
		if reordered == 0 {
			t.Fatal("no state was reordered: the check would not cover the permuting path")
		}
	})
	t.Run("sensor-filter", func(t *testing.T) {
		for n := 3; n <= 12; n++ {
			rt, goal := sensorFilter(t, n)
			red := symmetry.Detect(rt)
			if red == nil {
				t.Fatalf("N=%d: no symmetry detected", n)
			}
			c := red.NewCanonicalizer()
			calls := 0
			var bad error
			hook := func(st *network.State) {
				calls++
				in, want := st.Clone(), st.Clone()
				textKeyCanon(red.Groups, &want)
				c.Canon(st)
				if bad == nil && !sameBits(st, &want) {
					bad = fmt.Errorf("N=%d: Canon(%s) = %s, text-key order gives %s", n, showState(&in), showState(st), showState(&want))
				}
			}
			if _, err := ctmc.BuildWith(rt, goal, 0, ctmc.BuildOptions{Canon: hook}); err != nil {
				t.Fatal(err)
			}
			if bad != nil {
				t.Fatal(bad)
			}
			if calls == 0 {
				t.Fatalf("N=%d: the build canonicalized no state", n)
			}
		}
	})
}
