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
func (c *CTMC) Validate() error {
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
	if math.Abs(mass-1) > 1e-9 {
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

// UniformizationSteps returns the truncation point of the Poisson(λ·t)
// weights a transient solve by uniformization sums: λ·t plus a margin of
// twenty standard deviations. It fails when lt is not a finite
// non-negative number or the point exceeds MaxUniformizationSteps.
func UniformizationSteps(lt float64) (int, error) {
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
	if !(t >= 0) || math.IsInf(t, 1) {
		return 0, fmt.Errorf("ctmc: time bound must be finite and non-negative, got %g", t)
	}
	if tail <= 0 {
		tail = 1e-10
	}
	n := c.NumStates()

	// Uniformization rate: the maximum exit rate among non-goal states
	// (goal states are absorbing).
	var lambda float64
	for s := 0; s < n; s++ {
		if c.Goal[s] {
			continue
		}
		if r := c.ExitRate(s); r > lambda {
			lambda = r
		}
	}
	// Initial goal mass is already a hit.
	if lambda == 0 || t == 0 {
		var p float64
		for s := 0; s < n; s++ {
			if c.Goal[s] {
				p += c.Initial[s]
			}
		}
		return p, nil
	}

	// DTMC of the uniformized chain (goal states absorbing).
	type pEdge struct {
		to int
		p  float64
	}
	probs := make([][]pEdge, n)
	for s := 0; s < n; s++ {
		if c.Goal[s] {
			probs[s] = []pEdge{{to: s, p: 1}}
			continue
		}
		var stay float64 = 1
		var out []pEdge
		for _, e := range c.Edges[s] {
			p := e.Rate / lambda
			out = append(out, pEdge{to: e.To, p: p})
			stay -= p
		}
		if stay > 1e-15 {
			out = append(out, pEdge{to: s, p: stay})
		}
		probs[s] = out
	}

	// Transient distribution via Poisson-weighted powers.
	pi := make([]float64, n)
	copy(pi, c.Initial)
	next := make([]float64, n)

	lt := lambda * t
	maxIter, err := UniformizationSteps(lt)
	if err != nil {
		return 0, err
	}
	// Poisson(k; λt) computed iteratively in log space to avoid
	// overflow for large λt.
	logW := -lt // log weight at k = 0
	var result, cum float64
	addTerm := func() {
		w := math.Exp(logW)
		cum += w
		var hit float64
		for s := 0; s < n; s++ {
			if c.Goal[s] {
				hit += pi[s]
			}
		}
		result += w * hit
	}
	addTerm()
	// Iterate until the remaining Poisson tail is below the target.
	for k := 1; k <= maxIter && 1-cum > tail; k++ {
		for s := range next {
			next[s] = 0
		}
		for s := 0; s < n; s++ {
			if pi[s] == 0 {
				continue
			}
			for _, e := range probs[s] {
				next[e.to] += pi[s] * e.p
			}
		}
		pi, next = next, pi
		logW += math.Log(lt / float64(k))
		addTerm()
	}
	// Remaining tail: the goal mass can only grow, so result is a lower
	// bound with error ≤ tail.
	return result, nil
}
