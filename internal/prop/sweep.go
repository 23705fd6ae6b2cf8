// Multi-bound sweep support: one sampled path decides the property for
// every time bound u ≤ u_max at once.
//
// The key observation (the shared-path trick of UPPAAL-SMC-style
// probability-vs-bound plots): each of the three temporal patterns is
// decided along a path by a single polarity-flipping event —
//
//   - reachability  ◇[0,u] φ    — the first instant φ becomes true,
//   - invariance    □[0,u] φ    — the first instant φ becomes false,
//   - until         ψ U[0,u] φ  — the first instant φ becomes true while
//     ψ has held so far (a constraint failure before that kills every
//     bound at once).
//
// Evaluating the property once with the bound set to the sweep horizon
// u_max therefore yields the verdict of every cell: the engine already
// reports the verdict and the exact time it was decided
// (sim.PathResult.DecidedAt), and Sweep.Outcomes maps that pair to the
// per-bound Bernoulli vector. The vector is monotone in u — once hit,
// stays hit (anti-monotone for invariance) — which the sweep tests pin.
package prop

import "fmt"

// Sweep maps one path's decisive event to the Bernoulli outcome of every
// (property, bound) cell of a multi-bound analysis. A Sweep is immutable
// and safe for concurrent use; per-path outcome vectors live in
// caller-owned buffers so the fan-out allocates nothing.
type Sweep struct {
	kind   Kind
	bounds []float64
}

// NewSweep returns the sweep of p over the given time bounds. The bounds
// must be strictly ascending and each obey Property.Validate's range rule
// (non-negative, not NaN; +Inf is allowed); the largest bound is the sweep
// horizon the path property must be (re-)bounded at.
func NewSweep(p Property, bounds []float64) (*Sweep, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("prop: sweep needs at least one bound")
	}
	for i, u := range bounds {
		if err := checkBound(u); err != nil {
			return nil, err
		}
		if i > 0 && u <= bounds[i-1] {
			return nil, fmt.Errorf("prop: sweep bounds must be strictly ascending, got %g after %g",
				u, bounds[i-1])
		}
	}
	switch p.Kind {
	case Reachability, Invariance, Until:
	default:
		return nil, fmt.Errorf("prop: invalid kind %d", p.Kind)
	}
	out := &Sweep{kind: p.Kind, bounds: append([]float64(nil), bounds...)}
	return out, nil
}

// Kind returns the temporal pattern of the swept property.
func (s *Sweep) Kind() Kind { return s.kind }

// Cells returns the number of (property, bound) cells.
func (s *Sweep) Cells() int { return len(s.bounds) }

// Bounds returns the sweep's time bounds in ascending order. The slice is
// shared; callers must not mutate it.
func (s *Sweep) Bounds() []float64 { return s.bounds }

// Horizon returns the largest bound — the time bound the path property
// must carry so every cell is decided by one path.
func (s *Sweep) Horizon() float64 { return s.bounds[len(s.bounds)-1] }

// Outcomes fills out[i] with the verdict of the i-th cell for a path
// whose horizon-bounded property was decided (satisfied, at): satisfied
// is the verdict at the horizon and at is the model time of the decisive
// event (sim.PathResult.DecidedAt). len(out) must be Cells(); excess
// entries are left untouched.
//
// The mapping per kind:
//
//   - reachability/until: satisfied means the goal was first hit at time
//     at, so cell u holds iff at ≤ u; a violated path never hits within
//     the horizon (lock, constraint failure, or horizon expiry), so every
//     cell is violated.
//   - invariance: violated means the goal first failed at time at, so
//     cell u holds iff u < at; a satisfied path kept the goal true up to
//     the horizon (or froze in a goal state), so every cell holds.
func (s *Sweep) Outcomes(satisfied bool, at float64, out []bool) {
	n := len(s.bounds)
	if len(out) < n {
		n = len(out)
	}
	if s.kind == Invariance {
		for i := 0; i < n; i++ {
			out[i] = !satisfied && s.bounds[i] < at || satisfied
		}
		return
	}
	for i := 0; i < n; i++ {
		out[i] = satisfied && at <= s.bounds[i]
	}
}
