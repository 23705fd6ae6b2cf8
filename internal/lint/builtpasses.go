package lint

import (
	"errors"
	"math"

	"slimsim/internal/expr"
	"slimsim/internal/intervals"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/slim"
	"slimsim/internal/sta"
)

// The passes in this file run on the instantiated model, where every name
// is resolved to a variable and every component to an STA process. They
// re-lower the surface expressions with position tracking, so static-check
// failures point at the offending subexpression instead of the whole
// construct.

// typeChecker carries the shared state of the typecheck pass.
type typeChecker struct {
	b     *model.Built
	rep   *Reporter
	decls expr.Decls
}

// convert lowers e in inst's scope, recording the surface position of every
// lowered node. Conversion itself succeeded during instantiation, so a
// failure here is not reported again.
func (c *typeChecker) convert(e slim.Expr, inst *model.Instance) (expr.Expr, map[expr.Expr]slim.Pos, bool) {
	track := make(map[expr.Expr]slim.Pos)
	out, err := c.b.Convert(e, inst, func(n expr.Expr, p slim.Pos) { track[n] = p })
	if err != nil {
		return nil, nil, false
	}
	return out, track, true
}

// errPos maps a static-check failure back to the source: the tracked
// position of the failing node if known, the fallback otherwise.
func errPos(track map[expr.Expr]slim.Pos, err error, fallback slim.Pos) slim.Pos {
	if n, ok := expr.ErrNode(err); ok && n != nil {
		if p, ok := track[n]; ok {
			return p
		}
	}
	return fallback
}

func checkMsg(err error) string {
	var ce *expr.CheckError
	if errors.As(err, &ce) {
		return ce.Msg
	}
	return err.Error()
}

// checkTypesBuilt type-checks every guard, invariant, effect, computed port
// and injection of the instantiated model: ill-typed expressions (SL101),
// non-Boolean guards and invariants (SL102), assignment kind mismatches
// (SL103), assignments to driven ports (SL104) and timed-nonlinear
// expressions (SL105). It front-runs the same checks the network runtime
// performs at simulation start, but with positions.
func checkTypesBuilt(b *model.Built, rep *Reporter) {
	c := &typeChecker{b: b, rep: rep, decls: b.Net.DeclMap()}
	for _, inst := range b.Instances() {
		c.checkComputedPorts(inst)
		c.checkModes(inst)
		c.checkTransitions(inst)
	}
	c.checkInjections()
}

// checkBoolCtx checks a guard or invariant: well-typed (SL101), Boolean
// (SL102) and affine in the delay (SL105).
func (c *typeChecker) checkBoolCtx(e slim.Expr, inst *model.Instance, what string, fallback slim.Pos) {
	low, track, ok := c.convert(e, inst)
	if !ok {
		return
	}
	k, err := expr.Check(low, c.decls)
	if err != nil {
		c.rep.Errorf("SL101", errPos(track, err, fallback), "%s: %s", what, checkMsg(err))
		return
	}
	if k != expr.KindBool {
		c.rep.Errorf("SL102", fallback, "%s has kind %s, expected bool", what, k)
		return
	}
	if err := expr.TimedLinear(low, c.decls); err != nil {
		c.rep.Errorf("SL105", errPos(track, err, fallback), "%s: %s", what, checkMsg(err))
	}
}

func (c *typeChecker) checkComputedPorts(inst *model.Instance) {
	for _, f := range inst.Type.Features {
		if f.Compute == nil {
			continue
		}
		low, track, ok := c.convert(f.Compute, inst)
		if !ok {
			continue
		}
		qname := inst.Qualify(f.Name)
		k, err := expr.Check(low, c.decls)
		if err != nil {
			c.rep.Errorf("SL101", errPos(track, err, f.Pos), "computed port %s: %s", qname, checkMsg(err))
			continue
		}
		id, idOK := c.b.VarID(qname)
		if !idOK {
			continue
		}
		if dt, ok := c.decls.VarType(id); ok && k != dt.Kind {
			c.rep.Errorf("SL103", f.Pos, "computed port %s has kind %s, declared %s", qname, k, dt.Kind)
			continue
		}
		if err := expr.TimedLinear(low, c.decls); err != nil {
			c.rep.Errorf("SL105", errPos(track, err, f.Pos), "computed port %s: %s", qname, checkMsg(err))
		}
	}
}

func (c *typeChecker) checkModes(inst *model.Instance) {
	for _, md := range inst.Impl.Modes {
		if md.Invariant != nil {
			c.checkBoolCtx(md.Invariant, inst, "invariant of mode "+md.Name, md.Pos)
		}
	}
}

func (c *typeChecker) checkTransitions(inst *model.Instance) {
	for _, tr := range inst.Impl.Transitions {
		if tr.Guard != nil {
			c.checkBoolCtx(tr.Guard, inst, "transition guard", tr.Guard.Position())
		}
		for _, a := range tr.Effects {
			c.checkEffect(a, inst)
		}
	}
}

// checkEffect checks one assignment: the target must be writable (SL104)
// and the value well-typed (SL101) with a compatible kind (SL103; int
// widens to real, matching the runtime).
func (c *typeChecker) checkEffect(a slim.Assign, inst *model.Instance) {
	id, qname, err := c.b.Data(inst, a.Target, a.Pos)
	if err != nil {
		return
	}
	decl := c.b.Net.Vars[id]
	if decl.Flow {
		// After fault-injection weaving the public name resolves to the
		// read-only shadow; writes still land on the nominal variable.
		if nomID, ok := c.b.VarID(qname + "@nom"); ok {
			decl = c.b.Net.Vars[nomID]
		} else {
			c.rep.Errorf("SL104", a.Pos, "cannot assign %s: its value is driven by a connection or computed expression", qname)
			return
		}
	}
	low, track, ok := c.convert(a.Value, inst)
	if !ok {
		return
	}
	k, err := expr.Check(low, c.decls)
	if err != nil {
		c.rep.Errorf("SL101", errPos(track, err, a.Pos), "assignment to %s: %s", qname, checkMsg(err))
		return
	}
	if k != decl.Type.Kind && !(k == expr.KindInt && decl.Type.Kind == expr.KindReal) {
		c.rep.Errorf("SL103", a.Pos, "assignment to %s (%s) has kind %s", qname, decl.Type, k)
		return
	}
	if err := expr.TimedLinear(low, c.decls); err != nil {
		c.rep.Errorf("SL105", errPos(track, err, a.Pos), "assignment to %s: %s", qname, checkMsg(err))
	}
}

// checkInjections checks every fault injection's value against the target
// variable's kind.
func (c *typeChecker) checkInjections() {
	for _, ext := range c.b.Source().Extensions {
		inst := c.b.Root
		ok := true
		for _, seg := range ext.Target {
			if inst = inst.Children[seg]; inst == nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, inj := range ext.Injections {
			low, track, convOK := c.convert(inj.Value, inst)
			if !convOK {
				continue
			}
			k, err := expr.Check(low, c.decls)
			if err != nil {
				c.rep.Errorf("SL101", errPos(track, err, inj.Pos), "injected value: %s", checkMsg(err))
				continue
			}
			id, qname, err := c.b.Data(inst, inj.Target, inj.Pos)
			if err != nil {
				continue
			}
			dt, dtOK := c.decls.VarType(id)
			if !dtOK {
				continue
			}
			if k != dt.Kind && !(k == expr.KindInt && dt.Kind == expr.KindReal) {
				c.rep.Errorf("SL103", inj.Pos, "injected value for %s (%s) has kind %s", qname, dt, k)
			}
		}
	}
}

// assignedVars collects every variable assigned by some transition effect,
// except effects of transitions excluded by skip (may be nil).
func assignedVars(net *sta.Network, skip func(p *sta.Process, ti int) bool) map[expr.VarID]bool {
	out := make(map[expr.VarID]bool)
	for _, p := range net.Processes {
		for ti := range p.Transitions {
			if skip != nil && skip(p, ti) {
				continue
			}
			for _, a := range p.Transitions[ti].Effects {
				out[a.Var] = true
			}
		}
	}
	return out
}

// checkPortsBuilt flags in data ports that are never connected and never
// assigned (SL201): they hold their type default forever. Ports with an
// explicit default are considered deliberate parameters; event ports are
// free environment inputs by design and stay exempt.
func checkPortsBuilt(b *model.Built, rep *Reporter) {
	assigned := assignedVars(b.Net, nil)
	for _, inst := range b.Instances() {
		for _, f := range inst.Type.Features {
			if f.Event || f.Out || f.Default != nil {
				continue
			}
			qname := inst.Qualify(f.Name)
			id, ok := b.VarID(qname)
			if !ok {
				continue
			}
			decl := b.Net.Vars[id]
			if decl.Flow || assigned[id] {
				continue
			}
			rep.Warnf("SL201", f.Pos, "in data port %s is never connected or assigned; it always reads %s",
				qname, decl.Init)
		}
	}
}

// checkDeadTransitionsBuilt flags transitions whose guards cannot hold for
// any valuation within the declared variable ranges (SL305).
func checkDeadTransitionsBuilt(b *model.Built, rep *Reporter) {
	decls := b.Net.DeclMap()
	for _, inst := range b.Instances() {
		p := b.Process(inst)
		if p == nil {
			continue
		}
		for i, tr := range p.Transitions {
			if tr.Guard == nil || i >= len(inst.Impl.Transitions) {
				continue
			}
			if satisfy(tr.Guard, decls) == vFalse {
				src := inst.Impl.Transitions[i]
				rep.Warnf("SL305", src.Pos,
					"transition %s -> %s can never fire: its guard is unsatisfiable under declared variable ranges",
					src.From, src.To)
			}
		}
	}
}

// checkTimelocksBuilt runs two timelock heuristics. SL501 is structural: a
// location whose invariant depends on advancing time but that has no
// outgoing transition traps the model once the invariant expires. SL502 is
// exact for the initial configuration: using the runtime's initial state it
// computes the invariant window of each process's initial location and
// warns when the invariant forces an exit no transition can take.
func checkTimelocksBuilt(b *model.Built, rep *Reporter) {
	for _, inst := range b.Instances() {
		p := b.Process(inst)
		if p == nil {
			continue
		}
		for li := range p.Locations {
			loc := &p.Locations[li]
			if loc.Invariant == nil || len(p.Outgoing(sta.LocID(li))) > 0 || li >= len(inst.Impl.Modes) {
				continue
			}
			if invariantTimed(b, loc) {
				rep.Warnf("SL501", inst.Impl.Modes[li].Pos,
					"mode %s has a time-dependent invariant but no outgoing transitions; the model timelocks when the invariant expires",
					inst.Impl.Modes[li].Name)
			}
		}
	}

	checkInitialTimelocks(b, rep)
}

// invariantTimed reports whether a location's invariant depends on a
// variable that advances while the location is occupied.
func invariantTimed(b *model.Built, loc *sta.Location) bool {
	for id := range expr.Refs(loc.Invariant) {
		t := b.Net.Vars[id].Type
		if t.Clock {
			return true
		}
		if t.Continuous && loc.Rates[id] != 0 {
			return true
		}
	}
	return false
}

// checkInitialTimelocks analyzes each process's initial location in the
// network's propagated initial state (SL502). The analysis is restricted to
// invariants and guards whose discrete inputs are provably constant, so a
// warning cannot be invalidated by another process changing a variable
// first.
func checkInitialTimelocks(b *model.Built, rep *Reporter) {
	rt, err := network.New(b.Net)
	if err != nil {
		// The typecheck pass has already reported why.
		return
	}
	st := rt.NewState()
	sc := rt.NewScratch()
	if err := sc.InitialStateInto(&st); err != nil {
		return
	}
	// Nothing else uses sc below, so its environment stays valid.
	env := sc.Env(&st)
	nonneg := intervals.FromInterval(intervals.AtLeast(0))

	for _, inst := range b.Instances() {
		p := b.Process(inst)
		if p == nil || int(p.Initial) >= len(inst.Impl.Modes) {
			continue
		}
		loc := &p.Locations[p.Initial]
		if loc.Invariant == nil {
			continue
		}
		// Variables assigned by transitions other than the initial
		// location's own exits could perturb the analysis; exits
		// themselves cannot fire "before the first escape".
		assigned := assignedVars(b.Net, func(q *sta.Process, ti int) bool {
			return q == p && q.Transitions[ti].From == p.Initial
		})
		if !stableRefs(b, loc.Invariant, assigned) {
			continue
		}
		w, err := expr.Window(loc.Invariant, env, rt.Timed)
		if err != nil {
			continue
		}
		w = w.Intersect(nonneg)
		md := inst.Impl.Modes[p.Initial]
		if w.Empty() {
			rep.Warnf("SL502", md.Pos, "invariant of initial mode %s does not hold at time 0", md.Name)
			continue
		}
		sup, _ := w.Sup()
		if math.IsInf(sup, 1) {
			continue
		}
		outs := p.Outgoing(p.Initial)
		if len(outs) == 0 {
			continue // SL501 covers this.
		}
		escape := false
		for _, ti := range outs {
			tr := &p.Transitions[ti]
			if tr.Markovian() {
				escape = true
				break
			}
			if tr.Guard == nil {
				escape = true
				break
			}
			if !stableRefs(b, tr.Guard, assigned) {
				escape = true // cannot reason; assume enabled
				break
			}
			gw, err := expr.Window(tr.Guard, env, rt.Timed)
			if err != nil {
				escape = true
				break
			}
			if !gw.Intersect(w).Empty() {
				escape = true
				break
			}
		}
		if !escape {
			rep.Warnf("SL502", md.Pos,
				"initial mode %s must be left by time %g, but no outgoing transition can become enabled before then",
				md.Name, sup)
		}
	}
}

// stableRefs reports whether every variable in e is either timed (its
// evolution is part of the window analysis) or provably constant: not a
// flow variable and never assigned.
func stableRefs(b *model.Built, e expr.Expr, assigned map[expr.VarID]bool) bool {
	for id := range expr.Refs(e) {
		decl := b.Net.Vars[id]
		if decl.Type.Timed() {
			if assigned[id] {
				return false
			}
			continue
		}
		if decl.Flow || assigned[id] {
			return false
		}
	}
	return true
}
