// Compiled evaluation programs: at construction the runtime compiles every
// flow, invariant, guard and effect expression of the network into expr
// closures (see expr.Compile), so the per-step hot path of the simulator
// never walks an AST. The compiled forms replicate interpreted evaluation
// exactly — same values, same short-circuiting, same error messages — which
// keeps optimized traces bit-identical to the interpreter's.
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
	// dirty holds the flows downstream of the variables the effects
	// write: the only flows firing the transition can change.
	dirty flowSet
}

// flowSet is a bitset over flowProgs indices. Iterating its set bits in
// ascending order visits flows in topological order.
type flowSet []uint64

func (s flowSet) add(i int) { s[i>>6] |= 1 << (i & 63) }

func (s flowSet) union(o flowSet) {
	for w := range s {
		s[w] |= o[w]
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
// the dirty sets have classified every variable as timed or not.
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
	rt.classifyTimed()
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
// passes: the timed variables AdvanceInto moves and the flows downstream of
// them. Every other variable keeps its value across a delay, so its rate is
// 0 in every state.
func (rt *Runtime) classifyTimed() {
	rt.timed = make([]bool, len(rt.net.Vars))
	for i := range rt.timedVars {
		rt.timed[rt.timedVars[i].id] = true
	}
	for w, word := range rt.timedFlows {
		for ; word != 0; word &= word - 1 {
			rt.timed[rt.flowProgs[w<<6|bits.TrailingZeros64(word)].id] = true
		}
	}
}

// Timed reports whether variable id can change value while time passes:
// a clock, a continuous variable with trajectory equations, or a flow that
// reads one of them directly or through other flows. Guards, invariants
// and property windows decide every subexpression that reads no timed
// variable as a value (see expr.Timed).
func (rt *Runtime) Timed(id expr.VarID) bool { return rt.timed[id] }

// buildDirtySets gives every transition the set of flows downstream of the
// variables its effects write, and the runtime the set of flows downstream
// of its timed variables. Downstream means reading the variable directly or
// through other flows.
//
// applyInto and advanceInto re-evaluate only these sets. That is sound
// because flows read variables only (the Ref nodes of their expressions,
// never locations or time), effects never assign flows (checkStatic rejects
// it), and every state the runtime hands out has consistent flows: initial
// states are fully propagated, and each successor of a consistent state
// recomputes every flow whose inputs changed. A flow none of whose inputs
// was written therefore keeps its value and its earlier successful type
// check. States rebuilt outside the runtime keep this as long as they copy
// a consistent state exactly: a decoded CTMC key or a certified replica
// permutation.
func (rt *Runtime) buildDirtySets() {
	words := (len(rt.flowProgs) + 63) / 64
	ntrans := 0
	for _, p := range rt.net.Processes {
		ntrans += len(p.Transitions)
	}
	// Every set of the runtime, and the scratch closures below, share one
	// backing array.
	backing := make([]uint64, words*(len(rt.flowProgs)+ntrans+1))
	next := func() flowSet {
		s := flowSet(backing[:words:words])
		backing = backing[words:]
		return s
	}
	// readers[v] lists the flows whose defining expression reads v, each
	// once: flow i's references are walked together, so a repeat of v is
	// always the last entry.
	readers := make([][]int, len(rt.net.Vars))
	i := 0
	collect := func(n expr.Expr) {
		if r, ok := n.(*expr.Ref); ok && r.ID != expr.NoVar {
			if rs := readers[r.ID]; len(rs) == 0 || rs[len(rs)-1] != i {
				readers[r.ID] = append(rs, i)
			}
		}
	}
	for i = range rt.flowProgs {
		expr.Walk(rt.net.Vars[rt.flowProgs[i].id].FlowExpr, collect)
	}
	// down[i] is flow i with everything downstream of it. A reader of flow
	// i comes after i in topological order, so a reverse pass sees every
	// reader's closure before it needs it.
	down := make([]flowSet, len(rt.flowProgs))
	for i := len(rt.flowProgs) - 1; i >= 0; i-- {
		down[i] = next()
		down[i].add(i)
		for _, j := range readers[rt.flowProgs[i].id] {
			down[i].union(down[j])
		}
	}
	dirtyOf := func(set flowSet, v expr.VarID) {
		for _, j := range readers[v] {
			set.union(down[j])
		}
	}
	for pi := range rt.net.Processes {
		p := rt.net.Processes[pi]
		for ti := range p.Transitions {
			tp := &rt.procProgs[pi].trans[ti]
			tp.dirty = next()
			for ai := range p.Transitions[ti].Effects {
				dirtyOf(tp.dirty, p.Transitions[ti].Effects[ai].Var)
			}
		}
	}
	rt.timedFlows = next()
	for i := range rt.timedVars {
		dirtyOf(rt.timedFlows, rt.timedVars[i].id)
	}
}

// Scratch is a reusable per-worker evaluation arena: it owns one expression
// environment, letting a path run perform O(1) allocations after warm-up. A
// Scratch must only be used by one goroutine at a time; the runtime it
// wraps stays shared and immutable.
type Scratch struct {
	rt  *Runtime
	env env
}

// NewScratch returns a fresh evaluation arena for rt.
func (rt *Runtime) NewScratch() *Scratch {
	return &Scratch{rt: rt, env: env{rt: rt}}
}

// NewState returns a state with backing arrays sized for rt, for use as an
// AdvanceInto/ApplyInto destination.
func (rt *Runtime) NewState() State {
	return State{
		Locs: make([]sta.LocID, len(rt.net.Processes)),
		Vals: make([]expr.Value, len(rt.net.Vars)),
	}
}

// Env returns an expression environment reading from st. The environment is
// owned by the scratch and is invalidated by the next Scratch call; callers
// must not retain it.
func (s *Scratch) Env(st *State) expr.RateEnv {
	s.env.st = st
	return &s.env
}

// InitialStateInto resets st to the network's initial configuration with
// every flow variable propagated. st must have been created by NewState (or
// have matching backing array lengths).
func (s *Scratch) InitialStateInto(st *State) error {
	for i := range s.rt.net.Processes {
		st.Locs[i] = s.rt.net.Processes[i].Initial
	}
	for i := range s.rt.net.Vars {
		st.Vals[i] = s.rt.net.Vars[i].Init
	}
	st.Time = 0
	s.env.st = st
	return s.rt.propagateFlowsEnv(&s.env)
}

// MaxDelay returns the largest delay permitted by all location invariants
// from st: the supremum D of {d ≥ 0 : every invariant holds throughout
// [0, d]}. attained reports whether delaying exactly D is allowed (the
// bound is closed); D may be +inf. If an invariant is already violated at
// d = 0, MaxDelay returns (0, false, false).
func (s *Scratch) MaxDelay(st *State) (d float64, attained, nowOK bool, err error) {
	s.env.st = st
	return s.rt.maxDelayEnv(&s.env)
}

// Window returns the set of delays d (within the whole real line; callers
// intersect with [0, maxDelay]) at which every guard of the move holds.
// Markovian moves have no guard window (they race by rate); Window returns
// the full set for them. A guard subexpression that reads no timed variable
// (see Runtime.Timed) is decided with the value semantics of EnabledAt —
// integer division and mod, short-circuit and/or, the same errors — and
// contributes the full or empty set; interval arithmetic is used only where
// a timed variable is read.
func (s *Scratch) Window(st *State, m *Move) (intervals.Set, error) {
	s.env.st = st
	return s.rt.windowEnv(&s.env, m)
}

// EnabledAt reports whether the move's guards all hold right now (delay 0).
func (s *Scratch) EnabledAt(st *State, m *Move) (bool, error) {
	s.env.st = st
	return s.rt.enabledAtEnv(&s.env, m)
}

// AdvanceInto writes the state after letting d time units pass from src
// into out, which must not alias src: timed variables move along their
// trajectories, the flows downstream of them are recomputed, and Time
// increases. It does not check invariants; callers bound d by MaxDelay.
// src must come from the runtime (InitialStateInto, AdvanceInto or
// ApplyInto) or be an exact copy of such a state, so its flows are
// consistent: flows that read no timed variable keep src's values.
func (s *Scratch) AdvanceInto(out, src *State, d float64) error {
	return s.rt.advanceInto(out, src, &s.env, d)
}

// ApplyInto writes the successor of firing m from src (whose guards are
// assumed enabled) into out, which must not alias src. Effects of the
// participating processes apply sequentially in ascending process order;
// afterwards the flows downstream of the written variables are recomputed.
// Like AdvanceInto, it requires src to come from the runtime: every other
// flow keeps src's value.
func (s *Scratch) ApplyInto(out, src *State, m *Move) error {
	return s.rt.applyInto(out, src, m, &s.env)
}

// maxDelayEnv is Scratch.MaxDelay evaluated through a caller-owned
// environment.
func (rt *Runtime) maxDelayEnv(e *env) (d float64, attained, nowOK bool, err error) {
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
		w, werr := code(e)
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

// windowEnv is Scratch.Window evaluated through a caller-owned environment.
func (rt *Runtime) windowEnv(e *env, m *Move) (intervals.Set, error) {
	if m.Markovian() {
		return intervals.FullSet(), nil
	}
	w := intervals.FullSet()
	for _, part := range m.Parts {
		code := rt.procProgs[part.Proc].trans[part.Trans].guardWin
		if code == nil {
			continue
		}
		gw, err := code(e)
		if err != nil {
			return intervals.Set{}, Internal(fmt.Errorf("network: guard of %s transition %d: %w",
				rt.net.Processes[part.Proc].Name, part.Trans, err))
		}
		w = w.Intersect(gw)
		if w.Empty() {
			break
		}
	}
	return w, nil
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
			return false, err
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
		}
	}
	out.Time += d
	e.st = out
	for w, word := range rt.timedFlows {
		if err := rt.evalFlows(e, w, word); err != nil {
			return err
		}
	}
	if rt.stepHook != nil {
		return rt.stepHook(out)
	}
	return nil
}

// applyInto implements Scratch.ApplyInto. out must not alias src; e is
// repointed during the call.
func (rt *Runtime) applyInto(out, src *State, m *Move, e *env) error {
	out.CopyFrom(src)
	e.st = out
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
			out.Vals[as.Var] = val
		}
		out.Locs[part.Proc] = tr.To
	}
	// Recompute the union of the parts' dirty sets, one word at a time.
	for w := 0; w < rt.flowWords(); w++ {
		var word uint64
		for _, part := range m.Parts {
			word |= rt.procProgs[part.Proc].trans[part.Trans].dirty[w]
		}
		if err := rt.evalFlows(e, w, word); err != nil {
			return err
		}
	}
	if rt.stepHook != nil {
		return rt.stepHook(out)
	}
	return nil
}

// flowWords is the length of every flowSet of the runtime.
func (rt *Runtime) flowWords() int { return len(rt.timedFlows) }

// propagateFlowsEnv recomputes every flow variable of e.st in dependency
// order through the compiled flow programs.
func (rt *Runtime) propagateFlowsEnv(e *env) error {
	for i := range rt.flowProgs {
		if err := rt.evalFlow(e, i); err != nil {
			return err
		}
	}
	return nil
}

// evalFlows recomputes the flows whose bits are set in word, the w-th word
// of a flowSet, in ascending (topological) order.
func (rt *Runtime) evalFlows(e *env, w int, word uint64) error {
	for word != 0 {
		if err := rt.evalFlow(e, w<<6|bits.TrailingZeros64(word)); err != nil {
			return err
		}
		word &= word - 1
	}
	return nil
}

// evalFlow recomputes flow i of flowProgs in e.st, coercing an integer
// result of a real flow and checking it against the declared type.
func (rt *Runtime) evalFlow(e *env, i int) error {
	fp := &rt.flowProgs[i]
	decl := &rt.net.Vars[fp.id]
	val, err := fp.code(e)
	if err != nil {
		return Internal(fmt.Errorf("network: evaluating flow %s: %w", decl.Name, err))
	}
	if decl.Type.Kind == expr.KindReal && val.Kind() == expr.KindInt {
		val = expr.RealVal(val.AsFloat())
	}
	if !decl.Type.Admits(val) {
		return Internal(fmt.Errorf("network: flow %s value %s violates type %s",
			decl.Name, val, decl.Type))
	}
	e.st.Vals[fp.id] = val
	return nil
}
