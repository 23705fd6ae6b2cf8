// Compiled evaluation programs: at construction the runtime compiles every
// flow, invariant, guard and effect expression of the network into expr
// closures (see expr.Compile), so the per-step hot path of the simulator
// never walks an AST. The compiled programs are the only expression
// evaluator; they match the tree-walking reference the expr tests keep
// exactly — same values, same short-circuiting, same error messages.
package network

import (
	"fmt"
	"math"
	"math/bits"

	"slimsim/internal/expr"
	"slimsim/internal/intervals"
	"slimsim/internal/sta"
)

// flowProg is the compiled defining expression of one flow variable.
type flowProg struct {
	id   expr.VarID
	code expr.Code
}

// transProg holds the compiled guard and effects of one transition.
type transProg struct {
	// guardBool and guardWin are nil when the transition has no guard.
	guardBool expr.BoolCode
	guardWin  expr.WindowCode
	// effects holds one compiled right-hand side per effect, parallel to
	// the transition's Effects.
	effects []expr.Code
	// cached numbers the guard among the time-invariant guards a
	// GuardCache remembers, or is -1 when the guard reads a timed variable
	// or the transition has none. stale holds the cached guards firing
	// the transition can change (see buildGuardSets).
	cached int
	stale  bitset
}

// bitset is a set of small indices: of flowProgs in a flow set, where
// iterating its set bits in ascending order visits flows in topological
// order, or of cached guards in a guard set.
type bitset []uint64

func (s bitset) add(i int) { s[i>>6] |= 1 << (i & 63) }

func (s bitset) union(o bitset) {
	for w := range s {
		s[w] |= o[w]
	}
}

// each calls f on every index in s, in ascending order.
func (s bitset) each(f func(int)) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			f(w<<6 | bits.TrailingZeros64(word))
		}
	}
}

// procProg holds the compiled programs of one process.
type procProg struct {
	// invWin holds the compiled invariant window per location (nil when
	// the location has no invariant).
	invWin []expr.WindowCode
	trans  []transProg
}

// timedVar is one non-flow timed variable together with its rate source,
// precomputed for AdvanceInto. Continuous variables without trajectory
// equations always have rate 0 and are omitted.
type timedVar struct {
	id expr.VarID
	// cr resolves the rate from the owning process's location; when nil
	// the rate is the constant below (1 for clocks).
	cr   *contRate
	rate float64
}

// buildPrograms compiles every expression of the network. Called once from
// New, after static checking. Windows and flow rates compile last, once
// the downstream closures have classified every variable as timed or not.
func (rt *Runtime) buildPrograms() {
	rt.flowProgs = make([]flowProg, 0, len(rt.flowOrder))
	for _, v := range rt.flowOrder {
		rt.flowProgs = append(rt.flowProgs, flowProg{id: v, code: expr.Compile(rt.net.Vars[v].FlowExpr)})
	}
	rt.procProgs = make([]procProg, len(rt.net.Processes))
	for pi := range rt.net.Processes {
		p := rt.net.Processes[pi]
		pp := &rt.procProgs[pi]
		pp.trans = make([]transProg, len(p.Transitions))
		for ti := range p.Transitions {
			tr := &p.Transitions[ti]
			tp := &pp.trans[ti]
			if tr.Guard != nil {
				tp.guardBool = expr.CompileBool(tr.Guard)
			}
			tp.effects = make([]expr.Code, len(tr.Effects))
			for ai := range tr.Effects {
				tp.effects[ai] = expr.Compile(tr.Effects[ai].Expr)
			}
		}
	}
	for i := range rt.net.Vars {
		decl := &rt.net.Vars[i]
		if decl.Flow || !decl.Type.Timed() {
			continue
		}
		id := expr.VarID(i)
		tv := timedVar{id: id}
		if cr := rt.contRates[id]; cr != nil {
			tv.cr = cr
		} else if decl.Type.Clock {
			tv.rate = 1
		} else {
			// Continuous variable without trajectory equations: its
			// rate is always 0, so AdvanceInto never updates it.
			continue
		}
		rt.timedVars = append(rt.timedVars, tv)
	}
	rt.buildDirtySets()
	trans, timedFlows := rt.downstream()
	rt.classifyTimed(timedFlows)
	rt.buildGuardSets(trans)
	timed := rt.Timed
	rt.flowRate = make([]expr.AffineCode, len(rt.net.Vars))
	for _, fp := range rt.flowProgs {
		if timed(fp.id) {
			rt.flowRate[fp.id] = expr.CompileAffine(rt.net.Vars[fp.id].FlowExpr, timed)
		}
	}
	for pi := range rt.net.Processes {
		p := rt.net.Processes[pi]
		pp := &rt.procProgs[pi]
		pp.invWin = make([]expr.WindowCode, len(p.Locations))
		bounds := false
		for li := range p.Locations {
			if inv := p.Locations[li].Invariant; inv != nil {
				pp.invWin[li] = expr.CompileWindow(inv, timed)
				bounds = true
			}
			bounds = bounds || p.Locations[li].Urgent
		}
		if bounds {
			rt.bounding = append(rt.bounding, pi)
		}
		for ti := range p.Transitions {
			if g := p.Transitions[ti].Guard; g != nil {
				pp.trans[ti].guardWin = expr.CompileWindow(g, timed)
			}
		}
	}
}

// classifyTimed marks every variable whose value can change while time
// passes: the timed variables AdvanceInto moves and timedFlows, the flows
// downstream of them. Every other variable keeps its value across a delay,
// so its rate is 0 in every state.
func (rt *Runtime) classifyTimed(timedFlows bitset) {
	rt.timed = make([]bool, len(rt.net.Vars))
	for i := range rt.timedVars {
		rt.timed[rt.timedVars[i].id] = true
	}
	timedFlows.each(func(i int) { rt.timed[rt.flowProgs[i].id] = true })
}

// Timed reports whether variable id can change value while time passes:
// a clock, a continuous variable with trajectory equations, or a flow that
// reads one of them directly or through other flows. Guards, invariants
// and property windows decide every subexpression that reads no timed
// variable as a value (see expr.Timed).
func (rt *Runtime) Timed(id expr.VarID) bool { return rt.timed[id] }

// buildDirtySets gives every variable the set of flows whose defining
// expression reads it directly (its readers). AdvanceInto and ApplyInto
// recompute flows through these sets only (see propagate): a step marks
// the readers of the variables it changes, and a recomputed flow marks its
// own readers only when its value changed.
//
// That is exact. A flow is a pure function of the variables it reads: the
// Ref nodes of its expression, never locations or time. Effects never
// assign flows (checkStatic rejects it), and every state the runtime hands
// out has consistent flows: the initial state is fully propagated, and
// each successor of a consistent state recomputes every flow one of whose
// inputs is not bit-identical to its value in the source. A flow all of
// whose inputs are bit-identical would recompute to the same value and
// pass the same Admits check, so keeping its value changes nothing. States
// rebuilt outside the runtime keep this as long as they copy a consistent
// state exactly: a decoded CTMC key or a certified replica permutation.
func (rt *Runtime) buildDirtySets() {
	words := (len(rt.flowProgs) + 63) / 64
	backing := make([]uint64, words*len(rt.net.Vars))
	rt.readers = make([]bitset, len(rt.net.Vars))
	for v := range rt.readers {
		rt.readers[v], backing = backing[:words:words], backing[words:]
	}
	for i := range rt.flowProgs {
		expr.Walk(rt.net.Vars[rt.flowProgs[i].id].FlowExpr, func(n expr.Expr) {
			if r, ok := n.(*expr.Ref); ok && r.ID != expr.NoVar {
				rt.readers[r.ID].add(i)
			}
		})
	}
}

// downstream returns the flows a step can change at all, whatever values it
// writes: per process and transition the flows downstream of the variables
// its effects write, and the flows downstream of the timed variables.
// Downstream means reading the variable directly or through other flows.
// Construction uses these closures to classify timed variables and to
// build guard sets; stepping uses the readers instead.
func (rt *Runtime) downstream() (trans [][]bitset, timed bitset) {
	words := (len(rt.flowProgs) + 63) / 64
	// down[i] is flow i with everything downstream of it. A reader of flow
	// i comes after i in topological order, so a reverse pass sees every
	// reader's closure before it needs it.
	down := make([]bitset, len(rt.flowProgs))
	for i := len(down) - 1; i >= 0; i-- {
		down[i] = make(bitset, words)
		down[i].add(i)
		rt.readers[rt.flowProgs[i].id].each(func(j int) { down[i].union(down[j]) })
	}
	addDown := func(set bitset, v expr.VarID) {
		rt.readers[v].each(func(j int) { set.union(down[j]) })
	}
	trans = make([][]bitset, len(rt.net.Processes))
	for pi, p := range rt.net.Processes {
		trans[pi] = make([]bitset, len(p.Transitions))
		for ti := range p.Transitions {
			trans[pi][ti] = make(bitset, words)
			for _, as := range p.Transitions[ti].Effects {
				addDown(trans[pi][ti], as.Var)
			}
		}
	}
	timed = make(bitset, words)
	for _, tv := range rt.timedVars {
		addDown(timed, tv.id)
	}
	return trans, timed
}

// buildGuardSets numbers the time-invariant guards, the ones that read no
// timed variable, and gives every transition the set of those its firing
// can change: the guards that read a variable its effects write or a flow
// in its closure dirty[process][transition] (see downstream).
//
// A GuardCache forgets only these guards after a move, which is sound
// because a guard's value depends on nothing but the variables it reads
// (the Ref nodes of its expression, never locations or time). The
// successor ApplyInto writes differs from its source only in locations,
// the variables the parts' effects write and flows downstream of them,
// which lie in the union of the parts' closures. A delay changes only
// timed variables and the flows downstream of them, which no numbered
// guard reads.
func (rt *Runtime) buildGuardSets(dirty [][]bitset) {
	// readers[v] lists the numbered guards that read v.
	readers := make([][]int, len(rt.net.Vars))
	ntrans := 0
	for pi, p := range rt.net.Processes {
		ntrans += len(p.Transitions)
		for ti := range p.Transitions {
			tp := &rt.procProgs[pi].trans[ti]
			tp.cached = -1
			g := p.Transitions[ti].Guard
			if g == nil {
				continue
			}
			refs := expr.Refs(g)
			timed := false
			for v := range refs {
				timed = timed || rt.timed[v]
			}
			if timed {
				continue
			}
			tp.cached = rt.cachedGuards
			rt.cachedGuards++
			for v := range refs {
				readers[v] = append(readers[v], tp.cached)
			}
		}
	}
	words := rt.guardWords()
	backing := make([]uint64, words*ntrans)
	for pi, p := range rt.net.Processes {
		for ti := range p.Transitions {
			tp := &rt.procProgs[pi].trans[ti]
			tp.stale, backing = backing[:words:words], backing[words:]
			stale := func(v expr.VarID) {
				for _, g := range readers[v] {
					tp.stale.add(g)
				}
			}
			for ai := range p.Transitions[ti].Effects {
				stale(p.Transitions[ti].Effects[ai].Var)
			}
			dirty[pi][ti].each(func(i int) { stale(rt.flowProgs[i].id) })
		}
	}
}

// guardWords is the length of every guard set of the runtime.
func (rt *Runtime) guardWords() int { return (rt.cachedGuards + 63) / 64 }

// GuardCache remembers, along one sampled path, whether each time-invariant
// guard holds, so a step evaluates only the guards the previous move could
// have changed. The cache describes the path's current state: call Reset
// whenever that state is set other than by a successor of the state it
// described, and Invalidate after every ApplyInto; a delay keeps every
// value (see buildGuardSets). A GuardCache must only be used by one
// goroutine at a time.
type GuardCache struct {
	rt *Runtime
	// enabled and valid hold one bit per numbered guard; an enabled bit
	// means something only while its valid bit is set.
	enabled, valid bitset
	// runs counts the guard programs run on misses.
	runs int
}

// NewGuardCache returns a cache for paths of rt that holds no value yet.
func (rt *Runtime) NewGuardCache() *GuardCache {
	w := rt.guardWords()
	b := make(bitset, 2*w)
	return &GuardCache{rt: rt, enabled: b[:w:w], valid: b[w:]}
}

// Reset forgets every cached value.
func (c *GuardCache) Reset() { clear(c.valid) }

// Invalidate forgets the values firing m can change: the word-wise union
// of its parts' guard sets.
func (c *GuardCache) Invalidate(m *Move) {
	procs := c.rt.procProgs
	for w := range c.valid {
		var word uint64
		for _, part := range m.Parts {
			word |= procs[part.Proc].trans[part.Trans].stale[w]
		}
		c.valid[w] &^= word
	}
}

// Runs returns the number of guard programs the cache has run on misses.
func (c *GuardCache) Runs() int { return c.runs }

// lookup returns the cached value of guard g and whether there is one.
func (c *GuardCache) lookup(g int) (holds, valid bool) {
	bit := uint64(1) << (g & 63)
	return c.enabled[g>>6]&bit != 0, c.valid[g>>6]&bit != 0
}

// fill runs tp's guard program and caches its value. A failing guard is
// not cached.
func (c *GuardCache) fill(e *env, tp *transProg) (bool, error) {
	c.runs++
	ok, err := tp.guardBool(e)
	if err != nil {
		return false, err
	}
	w, bit := tp.cached>>6, uint64(1)<<(tp.cached&63)
	c.valid[w] |= bit
	if ok {
		c.enabled[w] |= bit
	} else {
		c.enabled[w] &^= bit
	}
	return ok, nil
}

// Scratch is a reusable per-worker evaluation arena: it owns one expression
// environment and one interval arena, letting a path run perform O(1)
// allocations after warm-up. A Scratch must only be used by one goroutine
// at a time; the runtime it wraps stays shared and immutable.
type Scratch struct {
	rt    *Runtime
	env   env
	arena intervals.Arena
}

// NewScratch returns a fresh evaluation arena for rt.
func (rt *Runtime) NewScratch() *Scratch {
	return &Scratch{rt: rt, env: env{rt: rt, pending: make(bitset, (len(rt.flowProgs)+63)/64)}}
}

// NewState returns a state with backing arrays sized for rt, for use as an
// AdvanceInto/ApplyInto destination.
func (rt *Runtime) NewState() State {
	return State{
		Locs: make([]sta.LocID, len(rt.net.Processes)),
		Vals: make([]expr.Value, len(rt.net.Vars)),
	}
}

// Arena returns the interval arena in which MaxDelay and Window build their
// window sets. The scratch never resets it: the caller that owns those sets'
// lifetime, such as a simulation step, calls Reset once it reads none of
// them any more, and may build sets of its own in it.
func (s *Scratch) Arena() *intervals.Arena { return &s.arena }

// Env returns an expression environment reading from st. The environment is
// owned by the scratch and is invalidated by the next Scratch call; callers
// must not retain it.
func (s *Scratch) Env(st *State) expr.RateEnv {
	s.env.st = st
	return &s.env
}

// InitialStateInto resets st to the network's initial configuration with
// every flow variable propagated. st must have been created by NewState (or
// have matching backing array lengths). The runtime propagates the initial
// state once, on the first call of any of its scratches, and every call
// copies it; when that propagation fails, every call returns its error and
// leaves st as it was.
func (s *Scratch) InitialStateInto(st *State) error {
	init, err := s.rt.initial()
	if err != nil {
		return err
	}
	st.CopyFrom(init)
	return nil
}

// buildInitial returns the network's initial configuration with every flow
// propagated. It runs once per runtime (see Runtime.initial); the state it
// returns is shared and never written.
func (rt *Runtime) buildInitial() (*State, error) {
	st := rt.NewState()
	for i := range rt.net.Processes {
		st.Locs[i] = rt.net.Processes[i].Initial
	}
	for i := range rt.net.Vars {
		st.Vals[i] = rt.net.Vars[i].Init
	}
	return &st, rt.propagateFlowsEnv(&env{rt: rt, st: &st})
}

// MaxDelay returns the largest delay permitted by all location invariants
// from st: the supremum D of {d ≥ 0 : every invariant holds throughout
// [0, d]}. attained reports whether delaying exactly D is allowed (the
// bound is closed); D may be +inf. If an invariant is already violated at
// d = 0, MaxDelay returns (0, false, false). The invariant windows it reads
// are built in the scratch's arena.
func (s *Scratch) MaxDelay(st *State) (d float64, attained, nowOK bool, err error) {
	s.env.st = st
	return s.rt.maxDelayEnv(&s.env, &s.arena)
}

// Window returns the set of delays d (within the whole real line; callers
// intersect with [0, maxDelay]) at which every guard of the move holds.
// Markovian moves have no guard window (they race by rate); Window returns
// the full set for them. A guard subexpression that reads no timed variable
// (see Runtime.Timed) is decided with the value semantics of EnabledAt —
// integer division and mod, short-circuit and/or, the same errors — and
// contributes the full or empty set; interval arithmetic is used only where
// a timed variable is read. A non-nil c answers time-invariant guards from
// the values it holds for st's path (see GuardCache); nil evaluates every
// guard. The set lives in the scratch's arena until its next Reset.
func (s *Scratch) Window(st *State, m *Move, c *GuardCache) (intervals.Set, error) {
	s.env.st = st
	return s.rt.windowEnv(&s.env, &s.arena, m, c)
}

// EnabledAt reports whether the move's guards all hold right now (delay 0).
func (s *Scratch) EnabledAt(st *State, m *Move) (bool, error) {
	s.env.st = st
	return s.rt.enabledAtEnv(&s.env, m)
}

// AdvanceInto writes the state after letting d time units pass from src
// into out, which must not alias src: timed variables with a nonzero rate
// move along their trajectories, Time increases, and a flow is recomputed
// only when one of its inputs changed value (see buildDirtySets). It does
// not check invariants; callers bound d by MaxDelay. src must come from the
// runtime (InitialStateInto, AdvanceInto or ApplyInto) or be an exact copy
// of such a state, so its flows are consistent: every flow that is not
// recomputed keeps src's value.
func (s *Scratch) AdvanceInto(out, src *State, d float64) error {
	return s.rt.advanceInto(out, src, &s.env, d)
}

// ApplyInto writes the successor of firing m from src (whose guards are
// assumed enabled) into out, which must not alias src. Effects of the
// participating processes apply sequentially in ascending process order;
// afterwards a flow is recomputed only when one of its inputs changed
// value: a variable an effect wrote to a value not bit-identical to the one
// it held, or a flow recomputed to such a value. Like AdvanceInto, it
// requires src to come from the runtime: every other flow keeps src's
// value.
func (s *Scratch) ApplyInto(out, src *State, m *Move) error {
	return s.rt.applyInto(out, src, m, &s.env)
}

// maxDelayEnv is Scratch.MaxDelay evaluated through a caller-owned
// environment, with the invariant windows built in a.
func (rt *Runtime) maxDelayEnv(e *env, a *intervals.Arena) (d float64, attained, nowOK bool, err error) {
	bound := math.Inf(1)
	boundAttained := true
	for _, pi := range rt.bounding {
		p := rt.net.Processes[pi]
		loc := &p.Locations[e.st.Locs[pi]]
		if loc.Urgent {
			bound, boundAttained = 0, true
			continue
		}
		code := rt.procProgs[pi].invWin[e.st.Locs[pi]]
		if code == nil {
			continue
		}
		w, werr := code(e, a)
		if werr != nil {
			return 0, false, false, Internal(fmt.Errorf("network: invariant of %s.%s: %w", p.Name, loc.Name, werr))
		}
		d, att, ok := prefixBound(w)
		if !ok {
			return 0, false, false, nil
		}
		if d < bound || (d == bound && !att) {
			bound, boundAttained = d, att
		}
	}
	if bound == 0 {
		return 0, boundAttained, true, nil
	}
	return bound, boundAttained && !math.IsInf(bound, 1), true, nil
}

// windowEnv is Scratch.Window evaluated through a caller-owned environment,
// with the guard windows and their intersection built in a.
func (rt *Runtime) windowEnv(e *env, a *intervals.Arena, m *Move, c *GuardCache) (intervals.Set, error) {
	if m.Markovian() {
		return intervals.FullSet(), nil
	}
	if c != nil && rt.guardHook != nil {
		if err := rt.guardHook(c, e.st); err != nil {
			return intervals.Set{}, err
		}
	}
	w := intervals.FullSet()
	for _, part := range m.Parts {
		tp := &rt.procProgs[part.Proc].trans[part.Trans]
		if tp.guardWin == nil {
			continue
		}
		var gw intervals.Set
		var err error
		if c != nil && tp.cached >= 0 {
			// A time-invariant guard's window is the full set, which
			// leaves w as it is, or the empty set, gw's zero value. Its
			// compiled window is the guard's Boolean program (see
			// expr.CompileWindow), so both give the same set and the
			// same error.
			ok, valid := c.lookup(tp.cached)
			if !valid {
				ok, err = c.fill(e, tp)
			}
			if ok {
				continue
			}
		} else {
			gw, err = tp.guardWin(e, a)
		}
		if err != nil {
			return intervals.Set{}, rt.guardError(part, err)
		}
		w = a.Intersect(w, gw)
		if w.Empty() {
			break
		}
	}
	return w, nil
}

// guardError classifies a failure of part's guard as an engine error and
// names the guard.
func (rt *Runtime) guardError(part Part, err error) error {
	return Internal(fmt.Errorf("network: guard of %s transition %d: %w",
		rt.net.Processes[part.Proc].Name, part.Trans, err))
}

// enabledAtEnv is Scratch.EnabledAt evaluated through a caller-owned
// environment.
func (rt *Runtime) enabledAtEnv(e *env, m *Move) (bool, error) {
	if m.Markovian() {
		return true, nil
	}
	for _, part := range m.Parts {
		code := rt.procProgs[part.Proc].trans[part.Trans].guardBool
		if code == nil {
			continue
		}
		ok, err := code(e)
		if err != nil {
			return false, rt.guardError(part, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// advanceInto implements Scratch.AdvanceInto. out must not alias src; e is
// repointed during the call.
func (rt *Runtime) advanceInto(out, src *State, e *env, d float64) error {
	if d < 0 {
		return Internal(fmt.Errorf("network: negative delay %g", d))
	}
	out.CopyFrom(src)
	if d == 0 {
		return nil
	}
	for i := range rt.timedVars {
		tv := &rt.timedVars[i]
		rate := tv.rate
		if tv.cr != nil {
			rate = tv.cr.rateIn(src)
		}
		if rate != 0 {
			out.Vals[tv.id] = expr.RealVal(src.Vals[tv.id].Real() + rate*d)
			e.pending.union(rt.readers[tv.id])
		}
	}
	out.Time += d
	e.st = out
	return rt.propagate(e)
}

// applyInto implements Scratch.ApplyInto. out must not alias src; e is
// repointed during the call.
func (rt *Runtime) applyInto(out, src *State, m *Move, e *env) error {
	out.CopyFrom(src)
	e.st = out
	if err := rt.applyEffects(e, m); err != nil {
		clear(e.pending)
		return err
	}
	return rt.propagate(e)
}

// applyEffects runs the effects of m's parts on e.st, sequentially in part
// order, moves each part to its target location, and adds to e.pending the
// readers of every variable an effect changes.
func (rt *Runtime) applyEffects(e *env, m *Move) error {
	for _, part := range m.Parts {
		p := rt.net.Processes[part.Proc]
		tr := &p.Transitions[part.Trans]
		codes := rt.procProgs[part.Proc].trans[part.Trans].effects
		for ai := range tr.Effects {
			as := &tr.Effects[ai]
			val, err := codes[ai](e)
			if err != nil {
				return Internal(fmt.Errorf("network: effect %s of %s: %w", as.Name, p.Name, err))
			}
			decl := &rt.net.Vars[as.Var]
			if decl.Type.Kind == expr.KindReal && val.Kind() == expr.KindInt {
				val = expr.RealVal(val.AsFloat())
			}
			if !decl.Type.Admits(val) {
				return Internal(fmt.Errorf("network: effect %s := %s violates type %s of %s",
					as.Name, val, decl.Type, decl.Name))
			}
			if !val.Identical(e.st.Vals[as.Var]) {
				e.st.Vals[as.Var] = val
				e.pending.union(rt.readers[as.Var])
			}
		}
		e.st.Locs[part.Proc] = tr.To
	}
	return nil
}

// propagate recomputes the pending flows of e.st in ascending (topological)
// order and leaves e.pending empty, also when it fails. A recomputed flow
// whose value is not bit-identical to the one the state held adds its
// readers, which come after it in that order, so one pass settles every
// flow. The step hook sees the result.
func (rt *Runtime) propagate(e *env) error {
	p := e.pending
	for w := range p {
		for p[w] != 0 {
			b := bits.TrailingZeros64(p[w])
			p[w] &^= 1 << b
			i := w<<6 | b
			changed, err := rt.evalFlow(e, i)
			if err != nil {
				clear(p)
				return err
			}
			if changed {
				p.union(rt.readers[rt.flowProgs[i].id])
			}
		}
	}
	if rt.stepHook != nil {
		return rt.stepHook(e.st)
	}
	return nil
}

// propagateFlowsEnv recomputes every flow variable of e.st in dependency
// order through the compiled flow programs.
func (rt *Runtime) propagateFlowsEnv(e *env) error {
	for i := range rt.flowProgs {
		if _, err := rt.evalFlow(e, i); err != nil {
			return err
		}
	}
	return nil
}

// evalFlow recomputes flow i of flowProgs in e.st, coercing an integer
// result of a real flow and checking it against the declared type, and
// reports whether the value it stores is not bit-identical to the one it
// replaces.
func (rt *Runtime) evalFlow(e *env, i int) (changed bool, err error) {
	fp := &rt.flowProgs[i]
	decl := &rt.net.Vars[fp.id]
	val, err := fp.code(e)
	if err != nil {
		return false, Internal(fmt.Errorf("network: evaluating flow %s: %w", decl.Name, err))
	}
	if decl.Type.Kind == expr.KindReal && val.Kind() == expr.KindInt {
		val = expr.RealVal(val.AsFloat())
	}
	if !decl.Type.Admits(val) {
		return false, Internal(fmt.Errorf("network: flow %s value %s violates type %s",
			decl.Name, val, decl.Type))
	}
	changed = !val.Identical(e.st.Vals[fp.id])
	e.st.Vals[fp.id] = val
	return changed, nil
}
