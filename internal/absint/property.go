package absint

import (
	"slimsim/internal/expr"
	"slimsim/internal/prop"
	"slimsim/internal/sta"
)

// ReachReport is the static verdict for one property, together with the
// goal-distance map that importance-splitting samplers use as their level
// function.
type ReachReport struct {
	// Decided reports whether the analysis settled the property exactly;
	// Probability is then 0 or 1.
	Decided bool
	// Probability is the exact answer when Decided.
	Probability float64
	// Reason explains the verdict (or why none was reached).
	Reason string
	// Vacuous marks properties whose truth does not depend on the
	// model's stochastic behavior at all: a reachability/until goal that
	// is statically unreachable, or an invariance goal that holds in
	// every reachable valuation (the SL701 condition).
	Vacuous bool
	// GoalDistance maps every (process, location) pair to the minimum
	// number of that process's transitions from the location to one
	// where the property's target predicate can hold, or -1 when no such
	// location is reachable. The target is the goal for reachability and
	// until, and the goal's negation (the violation) for invariance.
	GoalDistance [][]int
}

// Distance returns a lower bound on the number of network transitions
// needed to reach the target predicate from the given location vector (one
// location per process, as in network.State.Locs): the maximum of the
// per-process distances. It returns -1 when some process can never reach a
// target location, and 0 at target states. Levels are monotone under
// sound analysis: firing one network transition decreases the bound by at
// most one.
func (rep *ReachReport) Distance(locs []sta.LocID) int {
	if rep.GoalDistance == nil {
		return 0
	}
	max := 0
	for pi, li := range locs {
		if pi >= len(rep.GoalDistance) || int(li) >= len(rep.GoalDistance[pi]) {
			return 0
		}
		d := rep.GoalDistance[pi][li]
		if d < 0 {
			return -1
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Decide attempts an exact 0/1 verdict for the property from the fixpoint:
// properties decided by the initial state alone (the goal already holds,
// or the invariant is already violated) and properties whose goal can
// never hold at any reachable valuation. Undecided properties return
// Decided == false with the goal-distance map still filled in.
//
// The verdicts match the simulation semantics exactly: reachability and
// until are satisfied at time zero when the goal holds and the bound is
// nonnegative; a goal that no reachable valuation satisfies means every
// path — including dead- and timelocked ones — ends unsatisfied; and an
// invariance whose goal holds at every reachable valuation is satisfied
// on every path, again including locked ones (the engine evaluates the
// goal at the final state).
func (r *Result) Decide(p prop.Property) ReachReport {
	rep := ReachReport{Reason: "not statically decidable"}
	target := p.Goal
	if p.Kind == prop.Invariance {
		target = expr.Not(p.Goal)
	}
	rep.GoalDistance = r.distance(target)
	if !r.Converged {
		rep.Reason = "analysis did not converge"
		return rep
	}
	// Properties with a negative (or NaN) bound have degenerate
	// semantics; leave them to the simulator.
	if !(p.Bound >= 0) {
		rep.Reason = "property bound is not a nonnegative number"
		return rep
	}
	// Exact evaluation at the initial state decides "already true".
	if gv, ok := r.evalInitial(p.Goal); ok {
		switch p.Kind {
		case prop.Reachability, prop.Until:
			if gv {
				rep.Decided = true
				rep.Probability = 1
				rep.Reason = "goal holds in the initial state"
				return rep
			}
		case prop.Invariance:
			if !gv {
				rep.Decided = true
				rep.Probability = 0
				rep.Reason = "goal is violated in the initial state"
				return rep
			}
		}
	}
	switch p.Kind {
	case prop.Reachability, prop.Until:
		if r.never(p.Goal) {
			rep.Decided = true
			rep.Probability = 0
			rep.Vacuous = true
			rep.Reason = "goal is statically unreachable"
			return rep
		}
	case prop.Invariance:
		if r.never(expr.Not(p.Goal)) {
			rep.Decided = true
			rep.Probability = 1
			rep.Vacuous = true
			rep.Reason = "goal holds in every reachable valuation"
			return rep
		}
	}
	return rep
}

// evalInitial evaluates a Boolean expression exactly at the initial state.
func (r *Result) evalInitial(goal expr.Expr) (bool, bool) {
	st := r.rt.NewState()
	sc := r.rt.NewScratch()
	if err := sc.InitialStateInto(&st); err != nil {
		return false, false
	}
	v, err := expr.CompileBool(goal)(sc.Env(&st))
	if err != nil {
		return false, false
	}
	return v, true
}

// never reports whether the predicate is false at every reachable
// valuation: either the global ranges alone refute it, or some process
// refutes it at each of its reachable locations. Per-location stores are
// used unrefined — the predicate may be observed at states whose location
// invariants are already violated (entry into a timelock), so invariant
// refinement would be unsound here.
func (r *Result) never(goal expr.Expr) bool {
	if !r.Converged {
		return false
	}
	if satisfy(goal, r.storeLook(nil)) == vFalse {
		return true
	}
	for pi := range r.net.Processes {
		all := true
		for li := range r.net.Processes[pi].Locations {
			if !r.Reachable[pi][li] {
				continue
			}
			if satisfy(goal, r.look(pi, sta.LocID(li))) != vFalse {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// distance computes, per process and location, the minimum number of that
// process's live transitions from the location to one where the target
// predicate can hold (-1 when none is reachable). The per-process values
// are combined by Distance into a network-level lower bound.
func (r *Result) distance(target expr.Expr) [][]int {
	out := make([][]int, len(r.net.Processes))
	for pi, p := range r.net.Processes {
		dist := make([]int, len(p.Locations))
		for li := range dist {
			dist[li] = -1
			if !r.Reachable[pi][li] {
				continue
			}
			if satisfy(target, r.look(pi, sta.LocID(li))) != vFalse {
				dist[li] = 0
			}
		}
		// Backward relaxation over live transitions until stable.
		for changed := true; changed; {
			changed = false
			for ti := range p.Transitions {
				if !r.Live[pi][ti] {
					continue
				}
				tr := &p.Transitions[ti]
				if dist[tr.To] < 0 {
					continue
				}
				if d := dist[tr.To] + 1; dist[tr.From] < 0 || dist[tr.From] > d {
					dist[tr.From] = d
					changed = true
				}
			}
		}
		out[pi] = dist
	}
	return out
}
