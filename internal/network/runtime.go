package network

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"slimsim/internal/expr"
	"slimsim/internal/intervals"
	"slimsim/internal/sta"
)

// Runtime is the executable form of an STA network. It is immutable after
// construction and safe for concurrent use; all mutable simulation state
// lives in State values.
type Runtime struct {
	net       *sta.Network
	flowOrder []expr.VarID // topological evaluation order of flow vars
	contRates []*contRate  // per VarID; nil when no location sets its rate

	// Compiled evaluation programs (see compiled.go): flows in flowOrder,
	// per-VarID flow rate codes, per-process invariant/guard/effect codes
	// and the precomputed non-flow timed variables for AdvanceInto. readers
	// holds per VarID the flows that read the variable directly (see
	// buildDirtySets). timed marks per VarID the variables a delay can
	// change (see Timed), and bounding lists the processes with an urgent
	// location or an invariant, the only ones that can bound a delay.
	flowProgs []flowProg
	flowRate  []expr.AffineCode
	procProgs []procProg
	timedVars []timedVar
	readers   []bitset
	timed     []bool
	bounding  []int
	// cachedGuards counts the time-invariant guards a GuardCache
	// remembers (see buildGuardSets).
	cachedGuards int

	// pruned, when non-nil, marks transitions statically proven unable to
	// ever fire (or to ever be enumerated); the move tables leave them
	// out. Set once by Prune before simulation starts.
	pruned [][]bool

	// moves holds the candidate moves per process location (see
	// moves.go). labels returns the per-transition trace labels, built on
	// the first call; labelsBuilt records that call. initial returns the
	// propagated initial state, built on the first call (see buildInitial).
	moves       moveTables
	labels      func() [][]string
	labelsBuilt atomic.Bool
	initial     func() (*State, error)

	// stepHook, when non-nil, sees every successor applyInto and
	// advanceInto write, and its error fails the step. Only tests set it,
	// to hold change-driven propagation against full propagation.
	stepHook func(*State) error
	// guardHook, when non-nil, sees the cache and the state of every
	// cached window evaluation, and its error fails the evaluation. Only
	// tests set it, to hold cached guard values against fresh ones.
	guardHook func(*GuardCache, *State) error
}

// New validates the network and prepares the runtime: flow variables are
// topologically sorted (cyclic data connections are rejected), the
// synchronization map is built, and trajectory ownership is checked (at
// most one process drives each continuous variable).
func New(net *sta.Network) (*Runtime, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		net:       net,
		contRates: make([]*contRate, len(net.Vars)),
	}
	rt.labels = sync.OnceValue(rt.buildLabels)
	rt.initial = sync.OnceValues(rt.buildInitial)
	for pi, p := range net.Processes {
		// Build the outgoing-transition index now, while construction is
		// still single-threaded: the lazy build in sta.Outgoing races when
		// a shared Runtime's first paths run on several goroutines.
		p.BuildIndex()
		for li := range p.Locations {
			for v, r := range p.Locations[li].Rates {
				if v < 0 || int(v) >= len(net.Vars) {
					return nil, fmt.Errorf("network: process %s sets rate of out-of-range variable %d", p.Name, v)
				}
				decl := &net.Vars[v]
				if !decl.Type.Timed() {
					return nil, fmt.Errorf("network: process %s sets rate of non-timed variable %s", p.Name, decl.Name)
				}
				cr := rt.contRates[v]
				if cr == nil {
					fallback := 0.0
					if decl.Type.Clock {
						fallback = 1.0
					}
					cr = &contRate{proc: pi, perLoc: make([]float64, len(p.Locations))}
					for i := range cr.perLoc {
						cr.perLoc[i] = fallback
					}
					rt.contRates[v] = cr
				}
				if cr.proc != pi {
					return nil, fmt.Errorf("network: variable %s has trajectory equations in two processes (%s and %s)",
						decl.Name, net.Processes[cr.proc].Name, p.Name)
				}
				cr.perLoc[li] = r
			}
		}
	}
	order, err := flowOrder(net)
	if err != nil {
		return nil, err
	}
	rt.flowOrder = order
	if err := rt.checkStatic(); err != nil {
		return nil, err
	}
	rt.buildPrograms()
	rt.buildMoveTables()
	return rt, nil
}

// Net returns the underlying STA network.
func (rt *Runtime) Net() *sta.Network { return rt.net }

// Prune installs a mask of statically-dead transitions (per process, per
// transition index) and rebuilds the move tables without them. Callers own
// the soundness argument: a pruned transition must never be able to fire
// from any reachable state, and dropping it must not mask a
// guard-evaluation error (see absint.PruneMask). Prune must be called
// before simulation starts; it is not safe to call concurrently with
// Scratch.Moves.
func (rt *Runtime) Prune(dead [][]bool) error {
	if len(dead) != len(rt.net.Processes) {
		return fmt.Errorf("network: prune mask has %d processes, network has %d", len(dead), len(rt.net.Processes))
	}
	mask := make([][]bool, len(dead))
	for pi, p := range rt.net.Processes {
		if len(dead[pi]) != len(p.Transitions) {
			return fmt.Errorf("network: prune mask for %s has %d transitions, process has %d",
				p.Name, len(dead[pi]), len(p.Transitions))
		}
		mask[pi] = append([]bool(nil), dead[pi]...)
	}
	rt.pruned = mask
	rt.buildMoveTables()
	return nil
}

// isPruned reports whether the transition was masked out by Prune.
func (rt *Runtime) isPruned(pi, ti int) bool {
	return rt.pruned != nil && rt.pruned[pi][ti]
}

// PrunedMask returns the statically-dead transition mask installed by
// Prune, indexed like Net().Processes, or nil when no pruning is active.
// Callers must treat the mask as read-only. The symmetry detector uses it
// to certify that pruning did not break replica interchangeability.
func (rt *Runtime) PrunedMask() [][]bool { return rt.pruned }

// flowOrder topologically sorts flow variables by their dependencies on
// other flow variables, rejecting cycles.
func flowOrder(net *sta.Network) ([]expr.VarID, error) {
	isFlow := make(map[expr.VarID]bool, len(net.Vars))
	for i := range net.Vars {
		if net.Vars[i].Flow {
			isFlow[expr.VarID(i)] = true
		}
	}
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[expr.VarID]int, len(isFlow))
	var order []expr.VarID
	var visit func(v expr.VarID) error
	visit = func(v expr.VarID) error {
		switch state[v] {
		case visiting:
			return fmt.Errorf("network: cyclic data-port dependency through %s", net.Vars[v].Name)
		case done:
			return nil
		}
		state[v] = visiting
		for dep := range expr.Refs(net.Vars[v].FlowExpr) {
			if isFlow[dep] {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[v] = done
		order = append(order, v)
		return nil
	}
	// Iterate in ID order for determinism.
	for i := range net.Vars {
		v := expr.VarID(i)
		if isFlow[v] {
			if err := visit(v); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// checkStatic type-checks every guard, invariant, effect and flow
// expression and verifies linearity in timed contexts.
func (rt *Runtime) checkStatic() error {
	decls := rt.net.DeclMap()
	for i := range rt.net.Vars {
		d := &rt.net.Vars[i]
		if !d.Flow {
			continue
		}
		k, err := expr.Check(d.FlowExpr, decls)
		if err != nil {
			return fmt.Errorf("network: flow %s: %w", d.Name, err)
		}
		if k != d.Type.Kind {
			return fmt.Errorf("network: flow %s has kind %s, declared %s", d.Name, k, d.Type.Kind)
		}
		if err := expr.TimedLinear(d.FlowExpr, decls); err != nil {
			return fmt.Errorf("network: flow %s: %w", d.Name, err)
		}
	}
	for _, p := range rt.net.Processes {
		for li := range p.Locations {
			inv := p.Locations[li].Invariant
			if inv == nil {
				continue
			}
			if err := expr.CheckBool(inv, decls); err != nil {
				return fmt.Errorf("network: %s.%s invariant: %w", p.Name, p.Locations[li].Name, err)
			}
			if err := expr.TimedLinear(inv, decls); err != nil {
				return fmt.Errorf("network: %s.%s invariant: %w", p.Name, p.Locations[li].Name, err)
			}
		}
		for ti := range p.Transitions {
			tr := &p.Transitions[ti]
			if tr.Guard != nil {
				if err := expr.CheckBool(tr.Guard, decls); err != nil {
					return fmt.Errorf("network: %s transition %d guard: %w", p.Name, ti, err)
				}
				if err := expr.TimedLinear(tr.Guard, decls); err != nil {
					return fmt.Errorf("network: %s transition %d guard: %w", p.Name, ti, err)
				}
			}
			for ai := range tr.Effects {
				as := &tr.Effects[ai]
				if as.Var < 0 || int(as.Var) >= len(rt.net.Vars) {
					return fmt.Errorf("network: %s transition %d assigns out-of-range variable", p.Name, ti)
				}
				target := &rt.net.Vars[as.Var]
				if target.Flow {
					return fmt.Errorf("network: %s transition %d assigns flow variable %s", p.Name, ti, target.Name)
				}
				k, err := expr.Check(as.Expr, decls)
				if err != nil {
					return fmt.Errorf("network: %s transition %d effect: %w", p.Name, ti, err)
				}
				if k != target.Type.Kind && !(k == expr.KindInt && target.Type.Kind == expr.KindReal) {
					return fmt.Errorf("network: %s transition %d assigns %s value to %s variable %s",
						p.Name, ti, k, target.Type.Kind, target.Name)
				}
			}
		}
	}
	return nil
}

// UrgentNow reports whether some process currently occupies an urgent
// location (used to classify zero-delay locks).
func (rt *Runtime) UrgentNow(st *State) bool {
	for pi, p := range rt.net.Processes {
		if p.Locations[st.Locs[pi]].Urgent {
			return true
		}
	}
	return false
}

// prefixBound returns the largest D such that [0, D] ⊆ w (or [0, D) if the
// component is right-open). ok is false when 0 ∉ w.
func prefixBound(w intervals.Set) (d float64, attained, ok bool) {
	w.Each(func(iv intervals.Interval) bool {
		if iv.Contains(0) {
			d, attained, ok = iv.Hi, !iv.HiOpen && !math.IsInf(iv.Hi, 1), true
		}
		return !ok && iv.Lo <= 0
	})
	return d, attained, ok
}

// DelayClip returns the delay set the invariants allow, given the bound
// MaxDelay reports: [0, maxD] when the bound is attained, [0, maxD)
// otherwise, built in a; [0, ∞) is shared.
func DelayClip(a *intervals.Arena, maxD float64, attained bool) intervals.Set {
	if math.IsInf(maxD, 1) {
		return intervals.NonNegative()
	}
	if attained {
		return a.Of(intervals.Closed(0, maxD))
	}
	return a.Of(intervals.ClosedOpen(0, maxD))
}
