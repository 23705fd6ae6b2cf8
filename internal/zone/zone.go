// Package zone computes exact time-bounded reachability probabilities for
// the single-clock stochastic timed fragment of SLIM: at most one clock
// variable, no continuous variables, exponential rates on Markovian edges
// and arbitrary (clock- or data-) guards and invariants on the rest.
//
// The analyzer unfolds the model into *time segments*. Within a segment no
// guard window opens or closes and no invariant deadline is crossed, so the
// discrete behaviour is a CTMC over the segment's snapshot states: guarded
// moves are either fireable throughout the segment interior (vanishing
// states, resolved by maximal progress exactly as in package ctmc) or
// disabled throughout, and only the exponential races evolve. The transient
// distribution across each segment is computed by uniformization; at each
// segment boundary the deterministic firings (ASAP strategy semantics) are
// applied, goal states are absorbed, timelocked mass is declared dead, and
// the surviving mass seeds the next segment. The final answer is the goal
// mass absorbed at or before the bound (the bound itself is inclusive,
// matching the simulator's reach evaluator).
//
// Fidelity notes, relative to sim.Engine under the "asap" strategy:
//
//   - Windows whose infimum is not attained (strict guards like x > c) are
//     fired at the infimum exactly, where the engine nudges by 1e-9. The
//     discrepancy is below any practical Chernoff band.
//   - Boundaries closer together than 1e-9 are merged; window endpoints
//     within 1e-9 of "now" are snapped to now. This absorbs the one-ulp
//     float drift between the engine's single-hop delays and the
//     analyzer's multi-hop segment advances.
//   - Clock resets on transitions fired at deterministic boundary times
//     are supported (the reset time is known exactly, so the snapshot
//     stays a faithful representative). A reset on a transition reached
//     from a Markovian jump would smear the clock valuation across the
//     segment and is rejected as ineligible.
package zone

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/intervals"
	"slimsim/internal/network"
)

// ErrIneligible marks models outside the single-clock timed fragment. Use
// errors.Is to distinguish "cannot analyze this model" from analysis
// failures.
var ErrIneligible = errors.New("model outside the single-clock timed fragment")

const (
	// timeEps is the boundary-snapping tolerance: window endpoints within
	// timeEps of the current instant are treated as "now", and candidate
	// boundaries closer than timeEps are merged. It matches the engine's
	// ε-nudge scale.
	timeEps = 1e-9
	// segTail bounds the uniformization truncation error per segment.
	segTail = 1e-13
	// massEps is the probability mass below which a support state is
	// dropped.
	massEps = 1e-15
	// defaultMaxSegments bounds the number of time segments, which also
	// bounds total progress for pathological sub-ε boundary spacings.
	defaultMaxSegments = 1 << 14
	// maxCascade bounds immediate-transition cascade depth (cycle guard).
	maxCascade = 4096
)

// Result carries the exact probability together with exploration
// statistics.
type Result struct {
	// Probability is P(reach goal within the bound), the goal mass
	// absorbed at or before the bound.
	Probability float64
	// Dead is the probability mass timelocked (deadlocked with an expired
	// invariant) strictly before reaching the goal. Under the default
	// lock-violates verdict policy this mass counts against the goal.
	Dead float64
	// Segments is the number of time segments unfolded.
	Segments int
	// PeakStates is the largest per-segment closure size encountered.
	PeakStates int
}

// Eligible reports whether the model and goal are inside the fragment the
// analyzer handles: no continuous variables, at most one clock, and a goal
// that is boolean and (transitively, through flow definitions) independent
// of timed variables. The returned error wraps ErrIneligible.
func Eligible(rt *network.Runtime, goal expr.Expr) error {
	net := rt.Net()
	clocks := 0
	for i := range net.Vars {
		d := &net.Vars[i]
		switch {
		case d.Type.Continuous:
			return fmt.Errorf("zone: continuous variable %s: %w", d.Name, ErrIneligible)
		case d.Type.Clock:
			clocks++
		}
	}
	if clocks > 1 {
		return fmt.Errorf("zone: %d clocks (at most one supported): %w", clocks, ErrIneligible)
	}
	if err := expr.CheckBool(goal, net.DeclMap()); err != nil {
		return fmt.Errorf("zone: goal: %w", err)
	}
	// The goal must be delay-constant: its value may change only at
	// discrete moves, never during pure waiting. Flow variables are
	// followed through their defining expressions.
	seen := make(map[expr.VarID]bool)
	var visit func(e expr.Expr) error
	visit = func(e expr.Expr) error {
		for id := range expr.Refs(e) {
			if seen[id] {
				continue
			}
			seen[id] = true
			d := &net.Vars[id]
			if d.Type.Timed() {
				return fmt.Errorf("zone: goal depends on timed variable %s: %w", d.Name, ErrIneligible)
			}
			if d.Flow && d.FlowExpr != nil {
				if err := visit(d.FlowExpr); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return visit(goal)
}

// Analyze computes P(reach goal within bound) exactly. maxStates bounds the
// per-segment closure size (<= 0 selects a default).
func Analyze(rt *network.Runtime, goal expr.Expr, bound float64, maxStates int) (*Result, error) {
	if err := Eligible(rt, goal); err != nil {
		return nil, err
	}
	if bound < 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return nil, fmt.Errorf("zone: bound must be finite and non-negative, got %g", bound)
	}
	if maxStates <= 0 {
		maxStates = 1 << 18
	}
	a := &analyzer{
		rt:        rt,
		sc:        rt.NewScratch(),
		goal:      expr.CompileBool(goal),
		bound:     bound,
		maxStates: maxStates,
		clockID:   -1,
	}
	net := rt.Net()
	for i := range net.Vars {
		if net.Vars[i].Type.Clock {
			a.clockID = expr.VarID(i)
		}
	}

	init := rt.NewState()
	if err := a.sc.InitialStateInto(&init); err != nil {
		return nil, err
	}
	cur := []massState{{st: init, mass: 1}}
	tau := 0.0
	for {
		// Boundary processing: fire deterministic moves, absorb goal and
		// dead mass, merge the rest into the segment's support.
		support, err := a.settle(cur)
		if err != nil {
			return nil, err
		}
		var alive float64
		for _, ms := range support {
			alive += ms.mass
		}
		if alive <= massEps || tau >= bound {
			if total := a.reached + a.dead + alive; math.Abs(total-1) > 1e-6 {
				return nil, fmt.Errorf("zone: mass leak: reached %g + dead %g + alive %g = %g",
					a.reached, a.dead, alive, total)
			}
			return &Result{Probability: a.reached, Dead: a.dead, Segments: a.segments, PeakStates: a.peak}, nil
		}

		c, err := a.buildClosure(support)
		if err != nil {
			return nil, err
		}
		if n := len(c.states); n > a.peak {
			a.peak = n
		}
		delta := bound - tau
		if c.minCand < delta {
			delta = c.minCand
		}
		survivors, err := a.transient(c, delta)
		if err != nil {
			return nil, err
		}
		tau += delta
		cur = cur[:0]
		for i, m := range survivors {
			if m <= massEps {
				continue
			}
			adv := rt.NewState()
			if err := a.sc.AdvanceInto(&adv, &c.states[i], delta); err != nil {
				return nil, err
			}
			cur = append(cur, massState{st: adv, mass: m})
		}
		a.segments++
		if a.segments > defaultMaxSegments {
			return nil, fmt.Errorf("zone: segment budget (%d) exceeded at t=%g; boundaries too dense", defaultMaxSegments, tau)
		}
	}
}

// massState is a probability-weighted network state. A tangible state
// settle keeps also carries its key and what fireable found for it: its
// invariant deadline and the earliest window endpoint after now, the
// boundary candidates interning it registers.
type massState struct {
	st       network.State
	mass     float64
	key      string
	deadline float64
	nextEdge float64
}

type analyzer struct {
	rt        *network.Runtime
	sc        *network.Scratch
	goal      expr.BoolCode
	bound     float64
	maxStates int
	clockID   expr.VarID // -1 when the model has no clock

	// cascade holds one move set per immediate-cascade depth, for the
	// fireable moves settleState and resolveJump fire at that depth.
	cascade []*network.MoveSet

	reached  float64
	dead     float64
	segments int
	peak     int
}

// fireableNow reports whether the invariant-clipped guard window w admits
// firing at the current instant under ASAP semantics: its first non-past
// component starts at or before now (modulo the ε-snap). Right-open
// components ending now are already past — the engine's strict bound
// excludes the endpoint. Open-at-zero components are the engine's ε-nudge
// case, fired here at the infimum exactly.
func fireableNow(w intervals.Set) (fire bool) {
	w.Each(func(iv intervals.Interval) bool {
		if iv.Hi < -timeEps || (iv.HiOpen && iv.Hi <= timeEps) {
			return true
		}
		fire = iv.Lo <= timeEps
		return false
	})
	return fire
}

// movesAt returns the move set of cascade depth d, allocating it on first
// use.
func (a *analyzer) movesAt(d int) *network.MoveSet {
	for len(a.cascade) <= d {
		a.cascade = append(a.cascade, new(network.MoveSet))
	}
	return a.cascade[d]
}

// fireable collects the guarded moves of st that are fireable now, along
// with the invariant deadline and the earliest finite endpoint after now of
// any guarded move's window (+Inf if none): within a segment the fireable
// set must not change, so each endpoint subdivides time. The moves are
// composed into the move set of cascade depth depth, so they stay valid
// while deeper cascades run. Windows are clipped by the invariants first,
// exactly like the engine's step: an open-at-zero window under an expired
// invariant (maxD = 0) is a timelock, not a firing. The windows live in the
// scratch's arena, which fireable resets first: none outlives the call.
func (a *analyzer) fireable(st *network.State, depth int) (en []*network.Move, deadline, nextEdge float64, err error) {
	arena := a.sc.Arena()
	arena.Reset()
	deadline, att, nowOK, err := a.sc.MaxDelay(st)
	if err != nil {
		return nil, 0, 0, err
	}
	if !nowOK {
		return nil, 0, 0, fmt.Errorf("zone: invariant violated at t=%g", st.Time)
	}
	clip := network.DelayClip(arena, deadline, att)
	ms := a.movesAt(depth)
	a.sc.Moves(ms, st)
	nextEdge = math.Inf(1)
	for _, m := range ms.Guarded {
		w, err := a.sc.Window(st, m, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		w.Each(func(iv intervals.Interval) bool {
			nextEdge = earlier(earlier(nextEdge, iv.Lo), iv.Hi)
			return true
		})
		if fireableNow(arena.Intersect(w, clip)) {
			en = append(en, m)
		}
	}
	return en, deadline, nextEdge, nil
}

// assignsClock reports whether firing m writes the clock variable.
func (a *analyzer) assignsClock(m *network.Move) bool {
	if a.clockID < 0 {
		return false
	}
	net := a.rt.Net()
	for _, part := range m.Parts {
		tr := &net.Processes[part.Proc].Transitions[part.Trans]
		for i := range tr.Effects {
			if tr.Effects[i].Var == a.clockID {
				return true
			}
		}
	}
	return false
}

// settle performs boundary processing on a raw distribution: recursively
// fire every fireable move (uniform choice, maximal progress — clock resets
// are legal here, the boundary time is deterministic), absorb goal states
// into reached and timelocked states into dead, and merge the surviving
// tangible states by canonical key. The survivors come back in ascending
// key order: map order would renumber the segment's closure, and so reorder
// the float sums of transient, from run to run.
func (a *analyzer) settle(cur []massState) ([]*massState, error) {
	merged := make(map[string]*massState, len(cur))
	for i := range cur {
		if cur[i].mass <= massEps {
			continue
		}
		if err := a.settleState(&cur[i].st, cur[i].mass, merged, 0); err != nil {
			return nil, err
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*massState, len(keys))
	for i, k := range keys {
		out[i] = merged[k]
	}
	return out, nil
}

func (a *analyzer) settleState(st *network.State, mass float64, out map[string]*massState, depth int) error {
	if depth > maxCascade {
		return fmt.Errorf("zone: immediate-transition cascade exceeds %d steps (cycle of immediate transitions?)", maxCascade)
	}
	g, err := a.goal(a.sc.Env(st))
	if err != nil {
		return fmt.Errorf("zone: evaluating goal: %w", err)
	}
	if g {
		a.reached += mass
		return nil
	}
	en, d, next, err := a.fireable(st, depth)
	if err != nil {
		return err
	}
	if len(en) == 0 {
		if d <= timeEps {
			a.dead += mass
			return nil
		}
		key := st.Key()
		if ms, ok := out[key]; ok {
			ms.mass += mass
		} else {
			out[key] = &massState{st: st.Clone(), mass: mass, key: key, deadline: d, nextEdge: next}
		}
		return nil
	}
	share := mass / float64(len(en))
	for i := range en {
		succ := a.rt.NewState()
		if err := a.sc.ApplyInto(&succ, st, en[i]); err != nil {
			return err
		}
		if err := a.settleState(&succ, share, out, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Sentinel targets of a segment edge resolution. transient maps them to
// states n and n+1 of an n-state closure.
const (
	toGoal = -1
	toDead = -2
)

// share is a probability-weighted resolution target: a tangible closure
// state index, or toGoal/toDead.
type share struct {
	to int
	p  float64
}

// closure is one segment's CTMC: the tangible snapshot states reachable
// through Markovian jumps (with vanishing intermediates eliminated), their
// resolved rate edges, and the earliest future boundary.
type closure struct {
	states []network.State
	index  map[string]int
	// edges holds the resolved rate edges per state; a jump absorbed by
	// the goal or a timelock targets toGoal or toDead.
	edges   [][]ctmc.Edge
	support []share // initial distribution (p holds the mass)
	// minCand is the earliest boundary candidate strictly after now:
	// window endpoints and invariant deadlines of every state touched.
	minCand float64
}

// earlier returns t if it is a boundary candidate before min: finite and
// strictly after now, beyond the ε-snap. Otherwise it returns min.
func earlier(min, t float64) float64 {
	if t > timeEps && !math.IsInf(t, 1) && t < min {
		return t
	}
	return min
}

// addCand registers a relative boundary candidate.
func (c *closure) addCand(t float64) { c.minCand = earlier(c.minCand, t) }

// buildClosure explores the segment's CTMC from the settled support:
// tangible states are interned and expanded through their Markovian moves,
// whose targets are resolved through interior immediate cascades. The
// expanded state's moves live in a set of its own: the cascades compose
// into the analyzer's.
func (a *analyzer) buildClosure(support []*massState) (*closure, error) {
	c := &closure{
		index:   make(map[string]int, len(support)),
		minCand: math.Inf(1),
	}
	resolved := make(map[string][]share)
	var cm network.MoveSet
	for _, ms := range support {
		idx, err := a.intern(c, ms.key, &ms.st, ms.deadline, ms.nextEdge)
		if err != nil {
			return nil, err
		}
		c.support = append(c.support, share{to: idx, p: ms.mass})
	}
	for head := 0; head < len(c.states); head++ {
		st := &c.states[head]
		a.sc.Moves(&cm, st)
		for i, m := range cm.Markovian {
			if a.assignsClock(m) {
				return nil, fmt.Errorf("zone: clock reset on Markovian transition %s: %w",
					cm.MarkLabel(i), ErrIneligible)
			}
			succ := a.rt.NewState()
			if err := a.sc.ApplyInto(&succ, st, m); err != nil {
				return nil, err
			}
			dist, err := a.resolveJump(c, resolved, &succ, make(map[string]bool), 0)
			if err != nil {
				return nil, err
			}
			// Re-resolve head: interning in resolveJump may have grown
			// c.states, invalidating st.
			st = &c.states[head]
			for _, w := range dist {
				c.edges[head] = append(c.edges[head], ctmc.Edge{To: w.to, Rate: m.Rate * w.p})
			}
		}
	}
	return c, nil
}

// intern adds a tangible snapshot state of the given key to the closure,
// registering its invariant deadline and earliest window endpoint, as
// fireable found them, as boundary candidates.
func (a *analyzer) intern(c *closure, key string, st *network.State, deadline, nextEdge float64) (int, error) {
	if idx, ok := c.index[key]; ok {
		return idx, nil
	}
	if len(c.states) >= a.maxStates {
		return 0, fmt.Errorf("zone: segment closure exceeds %d states", a.maxStates)
	}
	c.addCand(deadline)
	c.addCand(nextEdge)
	idx := len(c.states)
	c.states = append(c.states, st.Clone())
	c.index[key] = idx
	c.edges = append(c.edges, nil)
	return idx, nil
}

// resolveJump resolves the target of a Markovian jump fired in the segment
// interior: goal states absorb, fireable moves cascade immediately (uniform
// choice; clock resets are ineligible here — the firing time is
// exponentially distributed, so a reset would smear the clock valuation),
// and timelocked targets die. Jump times are a.s. interior, so fireability
// is judged on the snapshot's near-zero window shape; every window endpoint
// met along the way subdivides the segment, keeping that judgment constant
// across the interior.
func (a *analyzer) resolveJump(c *closure, resolved map[string][]share, st *network.State, onPath map[string]bool, depth int) ([]share, error) {
	key := st.Key()
	if cached, ok := resolved[key]; ok {
		return cached, nil
	}
	if onPath[key] {
		return nil, fmt.Errorf("zone: cycle of immediate transitions through state %s", key)
	}
	if depth > maxCascade {
		return nil, fmt.Errorf("zone: immediate-transition cascade exceeds %d steps", maxCascade)
	}
	g, err := a.goal(a.sc.Env(st))
	if err != nil {
		return nil, fmt.Errorf("zone: evaluating goal: %w", err)
	}
	if g {
		out := []share{{to: toGoal, p: 1}}
		resolved[key] = out
		return out, nil
	}
	en, d, next, err := a.fireable(st, depth)
	if err != nil {
		return nil, err
	}
	if len(en) == 0 {
		if d <= timeEps {
			out := []share{{to: toDead, p: 1}}
			resolved[key] = out
			return out, nil
		}
		idx, err := a.intern(c, key, st, d, next)
		if err != nil {
			return nil, err
		}
		out := []share{{to: idx, p: 1}}
		resolved[key] = out
		return out, nil
	}
	// Vanishing: its window shape still subdivides the segment (the
	// fireable set at interior jump times must match the snapshot's).
	c.addCand(next)
	onPath[key] = true
	defer delete(onPath, key)
	acc := make(map[int]float64)
	p := 1 / float64(len(en))
	for i := range en {
		if a.assignsClock(en[i]) {
			return nil, fmt.Errorf("zone: clock reset on immediate transition %s fired at a stochastic time: %w",
				en[i].Label(a.rt), ErrIneligible)
		}
		succ := a.rt.NewState()
		if err := a.sc.ApplyInto(&succ, st, en[i]); err != nil {
			return nil, err
		}
		sub, err := a.resolveJump(c, resolved, &succ, onPath, depth+1)
		if err != nil {
			return nil, err
		}
		for _, w := range sub {
			acc[w.to] += p * w.p
		}
	}
	// Sorted by target, so the closure's edge order (and the float sums
	// over it) do not follow map order.
	out := make([]share, 0, len(acc))
	for to, p := range acc {
		out = append(out, share{to: to, p: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].to < out[j].to })
	resolved[key] = out
	return out, nil
}

// transient pushes the support distribution across delta time units of the
// segment CTMC, accumulating goal and dead absorption into the analyzer and
// returning the per-state survivor masses at the segment's end. The goal
// and dead sentinels become the chain's last two states, without edges;
// the closure's edges are retargeted to them in place.
func (a *analyzer) transient(c *closure, delta float64) ([]float64, error) {
	n := len(c.states)
	for _, row := range c.edges {
		for i := range row {
			if row[i].To < 0 {
				row[i].To = n - 1 - row[i].To // toGoal → n, toDead → n+1
			}
		}
	}
	chain := ctmc.CTMC{
		Edges:   append(c.edges, nil, nil),
		Initial: make([]float64, n+2),
		Goal:    make([]bool, n+2),
	}
	chain.Goal[n] = true
	for _, s := range c.support {
		chain.Initial[s.to] += s.p
	}
	out, err := chain.Transient(delta, segTail)
	if err != nil {
		return nil, fmt.Errorf("zone: %w", err)
	}
	a.reached += out[n]
	a.dead += out[n+1]
	return out[:n], nil
}
