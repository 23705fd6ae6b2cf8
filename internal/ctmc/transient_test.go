package ctmc

import (
	"math"
	"math/rand"
	"testing"
)

// randomChain returns a chain of 2–8 states with random edges, goal labels
// and an initial distribution of total mass mass.
func randomChain(r *rand.Rand, mass float64) *CTMC {
	n := 2 + r.Intn(7)
	c := &CTMC{
		Edges:   make([][]Edge, n),
		Initial: make([]float64, n),
		Goal:    make([]bool, n),
	}
	var sum float64
	for s := 0; s < n; s++ {
		for k := r.Intn(4); k > 0; k-- {
			c.Edges[s] = append(c.Edges[s], Edge{To: r.Intn(n), Rate: 0.05 + 3*r.Float64()})
		}
		c.Goal[s] = r.Intn(4) == 0
		c.Initial[s] = r.Float64()
		sum += c.Initial[s]
	}
	for s := range c.Initial {
		c.Initial[s] *= mass / sum
	}
	return c
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// TestTransientConservesMass: from a sub-stochastic initial distribution
// the result carries the same mass, with no negative entry, because the
// truncated Poisson tail is folded into the last iterate.
func TestTransientConservesMass(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		mass := 0.1 + 0.9*r.Float64()
		c := randomChain(r, mass)
		tb := 5 * r.Float64()
		out, err := c.Transient(tb, 1e-8)
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
		if got := sum(out); math.Abs(got-mass) > 1e-12 {
			t.Errorf("chain %d, t=%v: mass %v, want %v", i, tb, got, mass)
		}
		for s, p := range out {
			if p < 0 {
				t.Errorf("chain %d: state %d has mass %v", i, s, p)
			}
		}
	}
}

// TestTransientMatchesReachWithin: goal states absorb in both solvers, so
// the goal mass of Transient is ReachWithin's probability plus at most the
// folded tail.
func TestTransientMatchesReachWithin(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, tail := range []float64{1e-4, 1e-10} {
		for i := 0; i < 300; i++ {
			c := randomChain(r, 1)
			tb := 5 * r.Float64()
			out, err := c.Transient(tb, tail)
			if err != nil {
				t.Fatalf("chain %d: %v", i, err)
			}
			var goal float64
			for s, g := range c.Goal {
				if g {
					goal += out[s]
				}
			}
			p, err := c.ReachWithin(tb, tail)
			if err != nil {
				t.Fatalf("chain %d: %v", i, err)
			}
			if d := goal - p; d < -1e-12 || d > tail {
				t.Errorf("chain %d, t=%v, tail %g: Transient goal mass %v, ReachWithin %v",
					i, tb, tail, goal, p)
			}
		}
	}
}

// TestTransientTrivialHorizons: at t = 0, and on a chain whose non-goal
// states have no edges (λ = 0), the result is Initial bit for bit.
func TestTransientTrivialHorizons(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := randomChain(r, 0.7)
	still := &CTMC{
		Edges:   [][]Edge{nil, {{To: 0, Rate: 2}}, nil},
		Initial: []float64{0.2, 0.3, 0.1},
		Goal:    []bool{false, true, false},
	}
	for _, tc := range []struct {
		c  *CTMC
		tb float64
	}{{c, 0}, {still, 0}, {still, 3}} {
		out, err := tc.c.Transient(tc.tb, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		for s := range out {
			if math.Float64bits(out[s]) != math.Float64bits(tc.c.Initial[s]) {
				t.Errorf("t=%v: state %d has %v, want initial %v", tc.tb, s, out[s], tc.c.Initial[s])
			}
		}
	}
}

// TestTransientRejects: a time bound that is not a finite non-negative
// number, or a structurally bad chain, is an error.
func TestTransientRejects(t *testing.T) {
	good := twoState(1)
	for _, tb := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := good.Transient(tb, 1e-10); err == nil {
			t.Errorf("Transient(%v) succeeded, want an error", tb)
		}
	}
	for i, c := range []*CTMC{
		{Edges: [][]Edge{{{To: 2, Rate: 1}}, nil}, Initial: []float64{1, 0}, Goal: []bool{false, true}},
		{Edges: [][]Edge{{{To: -1, Rate: 1}}, nil}, Initial: []float64{1, 0}, Goal: []bool{false, true}},
		{Edges: [][]Edge{{{To: 1, Rate: 0}}, nil}, Initial: []float64{1, 0}, Goal: []bool{false, true}},
		{Edges: [][]Edge{{{To: 1, Rate: 1}}, nil}, Initial: []float64{1.5, -0.5}, Goal: []bool{false, true}},
		{Edges: [][]Edge{{{To: 1, Rate: 1}}, nil}, Initial: []float64{1}, Goal: []bool{false, true}},
	} {
		if _, err := c.Transient(1, 1e-10); err == nil {
			t.Errorf("case %d: Transient succeeded, want an error", i)
		}
	}
}
