package symmetry

import (
	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/sta"
)

// Canonicalizer rewrites states to their orbit representative: the member
// whose units, within every certified group, stand in ascending per-unit
// text order (see unitLess). It carries scratch buffers, so one instance
// serves one single-threaded exploration (ctmc.BuildWith calls it for
// every discovered state).
type Canonicalizer struct {
	groups []Group
	order  []int
	locTmp []sta.LocID
	valTmp []expr.Value
}

// NewCanonicalizer returns a canonicalizer over the reduction's groups.
func (r *Reduction) NewCanonicalizer() *Canonicalizer {
	max := 0
	for _, g := range r.Groups {
		if len(g.Units) > max {
			max = len(g.Units)
		}
	}
	return &Canonicalizer{groups: r.Groups, order: make([]int, 0, max)}
}

// Canon canonicalizes st in place. Because every unit's variables include
// its flow ports (they share the unit's index token), permuting whole unit
// configurations keeps all flow values consistent: the certificate
// guarantees the flow equations commute with the permutation, so no
// re-propagation is needed.
func (c *Canonicalizer) Canon(st *network.State) {
	for gi := range c.groups {
		g := &c.groups[gi]
		// Stable insertion sort of the unit indices: groups are small, and
		// unlike sort.SliceStable it allocates nothing.
		c.order = c.order[:0]
		for i := range g.Units {
			j := len(c.order)
			c.order = append(c.order, i)
			for ; j > 0 && unitLess(st, &g.Units[i], &g.Units[c.order[j-1]]); j-- {
				c.order[j] = c.order[j-1]
			}
			c.order[j] = i
		}
		// Only the units in [lo, hi) move. Gather their configurations in
		// sorted order, then write them back slot-wise: unit i receives the
		// configuration of unit order[i].
		lo, hi := 0, len(c.order)
		for lo < hi && c.order[lo] == lo {
			lo++
		}
		for hi > lo && c.order[hi-1] == hi-1 {
			hi--
		}
		c.locTmp, c.valTmp = c.locTmp[:0], c.valTmp[:0]
		for _, o := range c.order[lo:hi] {
			u := &g.Units[o]
			for _, p := range u.Procs {
				c.locTmp = append(c.locTmp, st.Locs[p])
			}
			for _, v := range u.Vars {
				c.valTmp = append(c.valTmp, st.Vals[v])
			}
		}
		li, vi := 0, 0
		for ui := lo; ui < hi; ui++ {
			u := &g.Units[ui]
			for _, p := range u.Procs {
				st.Locs[p] = c.locTmp[li]
				li++
			}
			for _, v := range u.Vars {
				st.Vals[v] = c.valTmp[vi]
				vi++
			}
		}
	}
}

// unitLess reports whether unit a sorts before unit b in text order: the
// bytewise order of the keys "l1,l2,…,|v1,v2,…," that render each process
// location in decimal and each variable with expr.Value.AppendText. Units
// of a group have the same slots, so the keys agree up to the first slot
// whose texts differ, and that slot decides. There the two texts, each
// followed by ',', order as the texts do alone: either their first
// differing byte decides, or one is a prefix of the other, and ',' sorts
// below every byte that can follow a complete value's text (digits, '-',
// '.', 'e' and letters; '+' only ever follows an 'e'), so the shorter text
// sorts first. expr.Value.CompareText gives that order without rendering.
func unitLess(st *network.State, a, b *Unit) bool {
	for k, p := range a.Procs {
		if x, y := st.Locs[p], st.Locs[b.Procs[k]]; x != y {
			return expr.IntVal(int64(x)).CompareText(expr.IntVal(int64(y))) < 0
		}
	}
	for k, v := range a.Vars {
		// Equal values have equal texts, except that -0 == 0.
		x, y := &st.Vals[v], &st.Vals[b.Vars[k]]
		if *x == *y && x.Kind() != expr.KindReal {
			continue
		}
		if c := x.CompareText(*y); c != 0 {
			return c < 0
		}
	}
	return false
}
