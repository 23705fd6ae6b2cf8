package network

import (
	"fmt"
	"math"
	"sort"

	"slimsim/internal/expr"
	"slimsim/internal/intervals"
	"slimsim/internal/sta"
)

// Runtime is the executable form of an STA network. It is immutable after
// construction and safe for concurrent use; all mutable simulation state
// lives in State values.
type Runtime struct {
	net         *sta.Network
	flowOrder   []expr.VarID     // topological evaluation order of flow vars
	actions     map[string][]int // action -> indices of participating processes
	actionNames []string         // keys of actions, sorted: Moves' enumeration order
	contRates   map[expr.VarID]*contRate

	// Compiled evaluation programs (see compiled.go): flows in flowOrder,
	// per-VarID flow rate codes, per-process invariant/guard/effect codes
	// and the precomputed non-flow timed variables for Advance, with the
	// flows downstream of them (the only flows a delay can change).
	flowProgs  []flowProg
	flowRate   []expr.AffineCode
	procProgs  []procProg
	timedVars  []timedVar
	timedFlows flowSet

	// pruned, when non-nil, marks transitions statically proven unable to
	// ever fire (or to ever be enumerated); Moves skips them. Set once by
	// Prune before simulation starts.
	pruned [][]bool

	// stepHook, when non-nil, sees every successor applyInto and
	// advanceInto write, and its error fails the step. Only tests set it,
	// to hold dirty-flow propagation against full propagation.
	stepHook func(*State) error
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
		actions:   make(map[string][]int),
		contRates: make(map[expr.VarID]*contRate),
	}
	for pi, p := range net.Processes {
		// Build the outgoing-transition index now, while construction is
		// still single-threaded: the lazy build in sta.Outgoing races when
		// a shared Runtime's first paths run on several goroutines.
		p.BuildIndex()
		for a := range p.Alphabet {
			rt.actions[a] = append(rt.actions[a], pi)
		}
		for li := range p.Locations {
			for v, r := range p.Locations[li].Rates {
				if v < 0 || int(v) >= len(net.Vars) {
					return nil, fmt.Errorf("network: process %s sets rate of out-of-range variable %d", p.Name, v)
				}
				decl := &net.Vars[v]
				if !decl.Type.Timed() {
					return nil, fmt.Errorf("network: process %s sets rate of non-timed variable %s", p.Name, decl.Name)
				}
				cr, ok := rt.contRates[v]
				if !ok {
					fallback := 0.0
					if decl.Type.Clock {
						fallback = 1.0
					}
					cr = &contRate{proc: pi, perLoc: make(map[sta.LocID]float64), fallback: fallback}
					rt.contRates[v] = cr
				}
				if cr.proc != pi {
					return nil, fmt.Errorf("network: variable %s has trajectory equations in two processes (%s and %s)",
						decl.Name, net.Processes[cr.proc].Name, p.Name)
				}
				cr.perLoc[sta.LocID(li)] = r
			}
		}
	}
	for a := range rt.actions {
		sort.Ints(rt.actions[a])
		rt.actionNames = append(rt.actionNames, a)
	}
	sort.Strings(rt.actionNames)
	order, err := flowOrder(net)
	if err != nil {
		return nil, err
	}
	rt.flowOrder = order
	if err := rt.checkStatic(); err != nil {
		return nil, err
	}
	rt.buildPrograms()
	return rt, nil
}

// Net returns the underlying STA network.
func (rt *Runtime) Net() *sta.Network { return rt.net }

// Prune installs a mask of statically-dead transitions (per process, per
// transition index) that Moves drops from enumeration. Callers own the
// soundness argument: a pruned transition must never be able to fire from
// any reachable state, and dropping it must not mask a guard-evaluation
// error (see absint.PruneMask). Prune must be called before simulation
// starts; it is not safe to call concurrently with Moves.
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

// InitialState builds the network's initial configuration with every flow
// variable propagated.
func (rt *Runtime) InitialState() (State, error) {
	st := State{
		Locs: make([]sta.LocID, len(rt.net.Processes)),
		Vals: make([]expr.Value, len(rt.net.Vars)),
	}
	for i, p := range rt.net.Processes {
		st.Locs[i] = p.Initial
	}
	for i := range rt.net.Vars {
		st.Vals[i] = rt.net.Vars[i].Init
	}
	if err := rt.propagateFlows(&st); err != nil {
		return State{}, err
	}
	return st, nil
}

// Env returns an expression environment reading from st.
func (rt *Runtime) Env(st *State) expr.RateEnv {
	return &env{rt: rt, st: st}
}

// propagateFlows recomputes every flow variable in dependency order.
func (rt *Runtime) propagateFlows(st *State) error {
	e := env{rt: rt, st: st}
	return rt.propagateFlowsEnv(&e)
}

// MaxDelay returns the largest delay permitted by all location invariants
// from st: the supremum D of {d ≥ 0 : every invariant holds throughout
// [0, d]}. attained reports whether delaying exactly D is allowed (the
// bound is closed); D may be +inf. If an invariant is already violated at
// d = 0, MaxDelay returns (0, false, false).
func (rt *Runtime) MaxDelay(st *State) (d float64, attained, nowOK bool, err error) {
	e := env{rt: rt, st: st}
	return rt.maxDelayEnv(&e)
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
	for _, iv := range w.Intervals() {
		if iv.Contains(0) {
			return iv.Hi, !iv.HiOpen && !math.IsInf(iv.Hi, 1), true
		}
	}
	return 0, false, false
}

// Move is a global discrete step: either a single process's internal or
// Markovian transition, or a synchronized vector of transitions sharing an
// action.
type Move struct {
	// Action is the shared label, or sta.Tau.
	Action string
	// Parts lists the participating (process, transition) pairs in
	// ascending process order.
	Parts []Part
	// Rate is positive for Markovian moves.
	Rate float64
}

// Part identifies one process's contribution to a move.
type Part struct {
	Proc  int
	Trans int // index into the process's Transitions
}

// Markovian reports whether the move fires after an exponential delay.
func (m *Move) Markovian() bool { return m.Rate > 0 }

// Label renders the move for traces.
func (m *Move) Label(rt *Runtime) string {
	if len(m.Parts) == 0 {
		return m.Action
	}
	p := rt.net.Processes[m.Parts[0].Proc]
	tr := &p.Transitions[m.Parts[0].Trans]
	from := p.Locations[tr.From].Name
	to := p.Locations[tr.To].Name
	if m.Action == sta.Tau {
		return fmt.Sprintf("%s: %s -> %s", p.Name, from, to)
	}
	return fmt.Sprintf("%s (%d procs): %s: %s -> %s", m.Action, len(m.Parts), p.Name, from, to)
}

// Moves enumerates the candidate global moves from st, ignoring guards:
// every internal (τ) transition of every process individually, every
// Markovian transition individually, and every combination of transitions
// sharing a synchronized action (one per participating process).
//
// Guard truth is evaluated separately (at a delay) via EnabledAt or
// Windows, so candidates here are purely structural.
func (rt *Runtime) Moves(st *State) []Move {
	// Internal and Markovian moves, counted first so they fill exactly
	// sized arrays.
	tau := 0
	for pi, p := range rt.net.Processes {
		for _, ti := range p.Outgoing(st.Locs[pi]) {
			if p.Transitions[ti].Action == sta.Tau && !rt.isPruned(pi, ti) {
				tau++
			}
		}
	}
	moves := make([]Move, 0, tau)
	// parts backs the Parts of every move. Each move keeps a
	// capacity-capped window of it, so later appends never write into a
	// window, and a reallocation leaves the earlier windows where they are.
	parts := make([]Part, 0, tau)
	for pi, p := range rt.net.Processes {
		for _, ti := range p.Outgoing(st.Locs[pi]) {
			tr := &p.Transitions[ti]
			if tr.Action != sta.Tau || rt.isPruned(pi, ti) {
				continue
			}
			parts = append(parts, Part{Proc: pi, Trans: ti})
			n := len(parts)
			moves = append(moves, Move{Action: sta.Tau, Parts: parts[n-1 : n : n], Rate: tr.Rate})
		}
	}
	// Synchronized moves: for each action, the cross product of each
	// participating process's candidate transitions, the first process
	// varying slowest. cands holds the candidates of all participants
	// back to back, participant j's run ending at ends[j]; pos is the
	// odometer over the runs.
	var cands, ends, pos []int
	for _, a := range rt.actionNames {
		procs := rt.actions[a]
		cands, ends, pos = cands[:0], ends[:0], pos[:0]
		feasible := true
		for _, pi := range procs {
			p := rt.net.Processes[pi]
			pos = append(pos, len(cands))
			for _, ti := range p.Outgoing(st.Locs[pi]) {
				if p.Transitions[ti].Action == a && !rt.isPruned(pi, ti) {
					cands = append(cands, ti)
				}
			}
			if len(cands) == pos[len(pos)-1] {
				feasible = false
				break
			}
			ends = append(ends, len(cands))
		}
		if !feasible {
			continue
		}
		for {
			base := len(parts)
			for j, pi := range procs {
				parts = append(parts, Part{Proc: pi, Trans: cands[pos[j]]})
			}
			n := len(parts)
			moves = append(moves, Move{Action: a, Parts: parts[base:n:n]})
			j := len(procs) - 1
			for ; j >= 0; j-- {
				if pos[j]++; pos[j] < ends[j] {
					break
				}
				if j > 0 {
					pos[j] = ends[j-1]
				}
			}
			if j < 0 {
				break
			}
		}
	}
	return moves
}

// Window returns the set of delays d (within the whole real line; callers
// intersect with [0, maxDelay]) at which every guard of the move holds.
// Markovian moves have no guard window (they race by rate); Window returns
// the full set for them.
func (rt *Runtime) Window(st *State, m *Move) (intervals.Set, error) {
	e := env{rt: rt, st: st}
	return rt.windowEnv(&e, m)
}

// EnabledAt reports whether the move's guards all hold right now (delay 0).
func (rt *Runtime) EnabledAt(st *State, m *Move) (bool, error) {
	e := env{rt: rt, st: st}
	return rt.enabledAtEnv(&e, m)
}

// Advance returns the state after letting d time units pass: timed
// variables move along their trajectories, the flows downstream of them are
// recomputed, and Time increases. It does not check invariants; callers
// bound d by MaxDelay. st must come from the runtime (InitialState, Advance,
// Apply or their Scratch forms) or be an exact copy of such a state, so its
// flows are consistent: flows that read no timed variable keep st's values.
func (rt *Runtime) Advance(st *State, d float64) (State, error) {
	out := rt.NewState()
	e := env{rt: rt}
	if err := rt.advanceInto(&out, st, &e, d); err != nil {
		return State{}, err
	}
	return out, nil
}

// Apply fires the move from st (whose guards are assumed enabled) and
// returns the successor. Effects of the participating processes apply
// sequentially in ascending process order; afterwards the flows downstream
// of the written variables are recomputed. Like Advance, it requires st to
// come from the runtime: every other flow keeps st's value.
func (rt *Runtime) Apply(st *State, m *Move) (State, error) {
	out := rt.NewState()
	e := env{rt: rt}
	if err := rt.applyInto(&out, st, m, &e); err != nil {
		return State{}, err
	}
	return out, nil
}
