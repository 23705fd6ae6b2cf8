// Package ctmc rebuilds the pre-existing COMPASS analysis flow the paper
// benchmarks the simulator against (§IV): the input model is unfolded into
// an explicit continuous-time Markov chain (the NuSMV reachability step),
// vanishing states introduced by immediate transitions are eliminated under
// maximal progress, and time-bounded reachability is computed numerically
// by uniformization (the MRMC step). Lumping (the Sigref step) lives in the
// sibling bisim package.
package ctmc

import (
	"fmt"
	"math"
)

// Edge is a Markovian transition of a CTMC.
type Edge struct {
	// To is the target state index.
	To int
	// Rate is the exponential rate (> 0).
	Rate float64
}

// CTMC is an explicit continuous-time Markov chain with an initial
// distribution and a Boolean goal labeling.
type CTMC struct {
	// Edges holds the outgoing Markovian transitions per state.
	Edges [][]Edge
	// Initial is the initial probability distribution over states.
	Initial []float64
	// Goal marks the target states of the reachability property.
	Goal []bool
}

// NumStates returns the number of states.
func (c *CTMC) NumStates() int { return len(c.Edges) }

// Validate checks structural consistency.
func (c *CTMC) Validate() error { return c.validate(true) }

// validate checks the vector lengths, the initial probabilities, and that
// every edge has an in-range target and a positive rate; with unitMass it
// also requires the initial distribution to sum to 1.
func (c *CTMC) validate(unitMass bool) error {
	n := len(c.Edges)
	if len(c.Initial) != n || len(c.Goal) != n {
		return fmt.Errorf("ctmc: inconsistent vector lengths (%d edges, %d initial, %d goal)",
			n, len(c.Initial), len(c.Goal))
	}
	var mass float64
	for _, p := range c.Initial {
		if p < 0 {
			return fmt.Errorf("ctmc: negative initial probability %g", p)
		}
		mass += p
	}
	if unitMass && math.Abs(mass-1) > 1e-9 {
		return fmt.Errorf("ctmc: initial distribution sums to %g", mass)
	}
	for s, edges := range c.Edges {
		for _, e := range edges {
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("ctmc: state %d has edge to out-of-range state %d", s, e.To)
			}
			if e.Rate <= 0 {
				return fmt.Errorf("ctmc: state %d has non-positive rate %g", s, e.Rate)
			}
		}
	}
	return nil
}

// ExitRate returns the total exit rate of state s.
func (c *CTMC) ExitRate(s int) float64 {
	var sum float64
	for _, e := range c.Edges[s] {
		sum += e.Rate
	}
	return sum
}

// MaxUniformizationSteps caps the Poisson truncation point of a transient
// solve. Each step sweeps every edge of the chain once, so the cap turns a
// λ·t the solver would grind through for minutes into an error; it admits
// λ·t up to about 9.98e7.
const MaxUniformizationSteps = 100_000_000

// uniformizationSteps returns the truncation point of the Poisson(λ·t)
// weights a transient solve by uniformization sums: λ·t plus a margin of
// twenty standard deviations. It fails when lt is not a finite
// non-negative number or the point exceeds MaxUniformizationSteps.
func uniformizationSteps(lt float64) (int, error) {
	steps := lt + 20*math.Sqrt(lt+1) + 100
	if !(lt >= 0) || !(steps <= MaxUniformizationSteps) {
		return 0, fmt.Errorf("ctmc: uniformization of λ·t = %g needs more than the %d-step cap", lt, MaxUniformizationSteps)
	}
	return int(steps), nil
}

// ReachWithin computes P(◇[0,t] Goal) by uniformization with truncation
// error at most tail. Goal states are made absorbing (standard reduction of
// time-bounded reachability to transient analysis).
func (c *CTMC) ReachWithin(t float64, tail float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	var result float64
	if _, _, err := c.uniformize(t, tail, func(w float64, pi []float64) {
		var hit float64
		for s, g := range c.Goal {
			if g {
				hit += pi[s]
			}
		}
		result += w * hit
	}); err != nil {
		return 0, err
	}
	// Remaining tail: the goal mass can only grow, so result is a lower
	// bound with error ≤ tail.
	return result, nil
}

// Transient returns the expected distribution at time t of the chain
// started from Initial, goal states absorbing, by uniformization. Initial
// may be sub-stochastic; the result carries the same mass, because the
// Poisson tail beyond the truncation point (at most tail) is folded into
// the last iterate.
func (c *CTMC) Transient(t float64, tail float64) ([]float64, error) {
	if err := c.validate(false); err != nil {
		return nil, err
	}
	out := make([]float64, c.NumStates())
	last, cum, err := c.uniformize(t, tail, func(w float64, pi []float64) {
		for s := range out {
			out[s] += w * pi[s]
		}
	})
	if err != nil {
		return nil, err
	}
	if rem := 1 - cum; rem > 0 {
		for s := range out {
			out[s] += rem * last[s]
		}
	}
	return out, nil
}

// uniformize steps the uniformized DTMC of c (goal states absorbing) from
// Initial and calls visit with the Poisson(λ·t) weight and the iterate of
// each step k = 0, 1, …, until the weights sum past 1 - tail (tail <= 0
// selects 1e-10). It returns the last iterate and the weight sum. λ is the
// largest exit rate of a non-goal state; when λ·t is 0 the only step is
// k = 0, of weight 1. The weights are computed in log space, so a large
// λ·t does not overflow.
func (c *CTMC) uniformize(t, tail float64, visit func(w float64, pi []float64)) ([]float64, float64, error) {
	if !(t >= 0) || math.IsInf(t, 1) {
		return nil, 0, fmt.Errorf("ctmc: time bound must be finite and non-negative, got %g", t)
	}
	if tail <= 0 {
		tail = 1e-10
	}
	n := c.NumStates()
	var lambda float64
	for s := 0; s < n; s++ {
		if c.Goal[s] {
			continue
		}
		if r := c.ExitRate(s); r > lambda {
			lambda = r
		}
	}
	pi := append([]float64(nil), c.Initial...)
	lt := lambda * t
	if lt == 0 {
		visit(1, pi)
		return pi, 1, nil
	}
	maxIter, err := uniformizationSteps(lt)
	if err != nil {
		return nil, 0, err
	}

	// DTMC of the uniformized chain, row s in dtmc[rows[s]:rows[s+1]]: a
	// goal state stays put, any other jumps with probability rate/λ and
	// stays with the rest.
	type pEdge struct {
		to int
		p  float64
	}
	size := n // a stay edge per state at most
	for _, edges := range c.Edges {
		size += len(edges)
	}
	rows := make([]int, n+1)
	dtmc := make([]pEdge, 0, size)
	for s := 0; s < n; s++ {
		rows[s] = len(dtmc)
		if c.Goal[s] {
			dtmc = append(dtmc, pEdge{to: s, p: 1})
			continue
		}
		stay := 1.0
		for _, e := range c.Edges[s] {
			p := e.Rate / lambda
			dtmc = append(dtmc, pEdge{to: e.To, p: p})
			stay -= p
		}
		if stay > 1e-15 {
			dtmc = append(dtmc, pEdge{to: s, p: stay})
		}
	}
	rows[n] = len(dtmc)

	next := make([]float64, n)
	logW := -lt // log weight at k = 0
	cum := math.Exp(logW)
	visit(cum, pi)
	for k := 1; k <= maxIter && 1-cum > tail; k++ {
		clear(next)
		for s, m := range pi {
			if m == 0 {
				continue
			}
			for _, e := range dtmc[rows[s]:rows[s+1]] {
				next[e.to] += m * e.p
			}
		}
		pi, next = next, pi
		logW += math.Log(lt / float64(k))
		w := math.Exp(logW)
		cum += w
		visit(w, pi)
	}
	return pi, cum, nil
}
