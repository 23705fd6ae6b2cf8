package lint

import (
	"slimsim/internal/absint"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/slim"
	"slimsim/internal/sta"
)

// instancesOf pairs every network process with the instance it was
// lowered from.
func instancesOf(b *model.Built) map[int]*model.Instance {
	byProc := make(map[*sta.Process]*model.Instance)
	for _, inst := range b.Instances() {
		if p := b.Process(inst); p != nil {
			byProc[p] = inst
		}
	}
	instOf := make(map[int]*model.Instance, len(byProc))
	for pi, p := range b.Net.Processes {
		if inst := byProc[p]; inst != nil {
			instOf[pi] = inst
		}
	}
	return instOf
}

// checkAbsintBuilt reports what the whole-model abstract interpretation
// proves beyond the per-construct checks: modes no execution can enter
// (SL307, subsuming the purely graph-based SL302), transitions that can
// never fire at any reachable valuation (SL306, subsuming the
// declared-range-only SL305), and transitions whose effects are guaranteed
// to abort the run — a range overflow or division by zero on every firing
// (SL106).
//
// Processes woven in by error-model extension have no source instance and
// are skipped; so are modes and transitions beyond the instance's surface
// lists (error-model weaving appends to both).
func checkAbsintBuilt(b *model.Built, _ *network.Runtime, res *absint.Result, rep *Reporter) {
	// A nil fixpoint means the network did not build, which is some other
	// pass's finding; one that did not converge proves nothing.
	if res == nil || !res.Converged {
		return
	}
	instOf := instancesOf(b)
	for pi := range b.Net.Processes {
		inst := instOf[pi]
		if inst == nil {
			continue
		}
		p := b.Net.Processes[pi]
		for li := range p.Locations {
			if li >= len(inst.Impl.Modes) || !res.ModeUnreachable(pi, sta.LocID(li)) {
				continue
			}
			md := inst.Impl.Modes[li]
			rep.Warnf("SL307", md.Pos,
				"mode %s of %s is unreachable in every execution once guards and variable ranges are tracked",
				md.Name, inst.Impl.Name())
			rep.Suppress("SL302", md.Pos)
		}
		for ti := range p.Transitions {
			if ti >= len(inst.Impl.Transitions) || !res.TransitionDead(pi, ti) {
				continue
			}
			src := inst.Impl.Transitions[ti]
			rep.Warnf("SL306", src.Pos,
				"transition %s -> %s can never fire: its guard is unsatisfiable at every reachable valuation",
				src.From, src.To)
			rep.Suppress("SL305", src.Pos)
		}
	}
	for _, f := range res.Findings {
		inst := instOf[f.Proc]
		if inst == nil || f.Trans >= len(inst.Impl.Transitions) {
			continue
		}
		src := inst.Impl.Transitions[f.Trans]
		rep.Errorf("SL106", src.Pos, "transition %s -> %s: %s", src.From, src.To, f.Msg)
	}
}

// checkPropertyVacuity lints one property pattern against the model:
// SL701 flags properties that do not compile in the model's scope and
// properties the fixpoint proves vacuous — a reachability/until goal that
// no reachable valuation satisfies (the estimate is exactly 0 regardless
// of rates and clocks), or an invariance goal that every reachable
// valuation satisfies (exactly 1). Both usually mean the property tests
// something other than what was intended.
func checkPropertyVacuity(b *model.Built, res *absint.Result, pattern string, rep *Reporter) {
	spec, err := prop.ParsePattern(pattern)
	if err != nil {
		rep.Errorf("SL701", slim.Pos{}, "property %q does not parse: %v", pattern, err)
		return
	}
	goal, err := b.CompileExpr(spec.Goal)
	if err != nil {
		rep.Errorf("SL701", slim.Pos{}, "property goal %q does not compile: %v", spec.Goal, err)
		return
	}
	var p prop.Property
	switch spec.Kind {
	case prop.Invariance:
		p = prop.Always(spec.Bound, goal)
	case prop.Until:
		cons, err := b.CompileExpr(spec.Constraint)
		if err != nil {
			rep.Errorf("SL701", slim.Pos{}, "property constraint %q does not compile: %v", spec.Constraint, err)
			return
		}
		p = prop.UntilWithin(spec.Bound, cons, goal)
	default:
		p = prop.Reach(spec.Bound, goal)
	}
	if res == nil || !res.Converged {
		return
	}
	verdict := res.Decide(p)
	if !verdict.Vacuous {
		return
	}
	rep.Warnf("SL701", slim.Pos{}, "property %q is vacuous: %s (the estimate is exactly %g for any rates and clocks)",
		pattern, verdict.Reason, verdict.Probability)
}
