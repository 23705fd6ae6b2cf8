package symmetry

import (
	"bytes"

	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/sta"
)

// Canonicalizer rewrites states to the lexicographically least member of
// their permutation orbit by sorting the per-unit configurations of every
// certified group in place. It carries scratch buffers, so one instance
// serves one single-threaded exploration (ctmc.BuildWith calls it for
// every discovered state).
type Canonicalizer struct {
	groups []Group
	keys   [][]byte
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
	c := &Canonicalizer{groups: r.Groups, order: make([]int, 0, max)}
	c.keys = make([][]byte, max)
	for i := range c.keys {
		c.keys[i] = make([]byte, 0, 32)
	}
	return c
}

// Canon canonicalizes st in place. Because every unit's variables include
// its flow ports (they share the unit's index token), permuting whole unit
// configurations keeps all flow values consistent: the certificate
// guarantees the flow equations commute with the permutation, so no
// re-propagation is needed.
func (c *Canonicalizer) Canon(st *network.State) {
	for gi := range c.groups {
		g := &c.groups[gi]
		n := len(g.Units)
		for ui := 0; ui < n; ui++ {
			u := &g.Units[ui]
			buf := c.keys[ui][:0]
			for _, p := range u.Procs {
				buf = appendInt(buf, int(st.Locs[p]))
				buf = append(buf, ',')
			}
			buf = append(buf, '|')
			for _, v := range u.Vars {
				buf = st.Vals[v].AppendText(buf)
				buf = append(buf, ',')
			}
			c.keys[ui] = buf
		}
		// Stable insertion sort of the unit indices by key: groups are
		// small, and unlike sort.SliceStable it allocates nothing.
		c.order = c.order[:0]
		identity := true
		for i := 0; i < n; i++ {
			j := len(c.order)
			c.order = append(c.order, i)
			for ; j > 0 && bytes.Compare(c.keys[i], c.keys[c.order[j-1]]) < 0; j-- {
				c.order[j] = c.order[j-1]
			}
			if j != i {
				c.order[j] = i
				identity = false
			}
		}
		if identity {
			continue
		}
		// Gather the configurations in sorted order, then write them
		// back slot-wise: unit i receives the configuration of unit
		// order[i].
		c.locTmp = c.locTmp[:0]
		c.valTmp = c.valTmp[:0]
		for _, o := range c.order {
			u := &g.Units[o]
			for _, p := range u.Procs {
				c.locTmp = append(c.locTmp, st.Locs[p])
			}
			for _, v := range u.Vars {
				c.valTmp = append(c.valTmp, st.Vals[v])
			}
		}
		li, vi := 0, 0
		for ui := 0; ui < n; ui++ {
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

func appendInt(buf []byte, v int) []byte {
	if v < 0 {
		buf = append(buf, '-')
		v = -v
	}
	if v >= 10 {
		buf = appendInt(buf, v/10)
	}
	return append(buf, byte('0'+v%10))
}
