package network

import (
	"fmt"
	"sync/atomic"

	"slimsim/internal/expr"
)

// CheckFlows re-propagates every flow of a copy of st and reports the first
// variable whose bits differ from st's: the oracle change-driven propagation
// must match. st itself is left untouched.
func (rt *Runtime) CheckFlows(st *State) error {
	full := st.Clone()
	if err := rt.propagateFlowsEnv(&env{rt: rt, st: &full}); err != nil {
		return fmt.Errorf("full propagation: %w", err)
	}
	for i := range st.Vals {
		if !st.Vals[i].Identical(full.Vals[i]) {
			return fmt.Errorf("flow %s holds %s, full propagation gives %s (state %s)",
				rt.net.Vars[i].Name, st.Vals[i], full.Vals[i], st.Key())
		}
	}
	return nil
}

// CheckFlowsOnEveryStep makes every ApplyInto and AdvanceInto of rt run
// CheckFlows on its successor, failing the step on a mismatch. The returned counter counts the checked successors; it is
// safe to read while several goroutines step the runtime.
func (rt *Runtime) CheckFlowsOnEveryStep() *atomic.Int64 {
	n := new(atomic.Int64)
	rt.stepHook = func(st *State) error {
		n.Add(1)
		return rt.CheckFlows(st)
	}
	return n
}

// CountFlowRuns wraps every flow program of rt so that it counts its runs,
// and returns the counter; it is safe to read while several goroutines step
// the runtime. Call it before the runtime's first InitialStateInto to count
// the initial propagation too.
func (rt *Runtime) CountFlowRuns() *atomic.Int64 {
	n := new(atomic.Int64)
	for i := range rt.flowProgs {
		code := rt.flowProgs[i].code
		rt.flowProgs[i].code = func(e expr.Env) (expr.Value, error) {
			n.Add(1)
			return code(e)
		}
	}
	return n
}

// checkGuardCache compares every valid bit of c with a fresh run of its
// guard's Boolean program on st, the oracle GuardCache must match, and
// returns the number of bits it compared.
func (rt *Runtime) checkGuardCache(c *GuardCache, st *State) (int, error) {
	e := &env{rt: rt, st: st}
	n := 0
	for pi, p := range rt.net.Processes {
		for ti := range p.Transitions {
			tp := &rt.procProgs[pi].trans[ti]
			g := tp.cached
			if g < 0 || c.valid[g>>6]&(1<<(g&63)) == 0 {
				continue
			}
			ok, err := tp.guardBool(e)
			if err != nil {
				return n, fmt.Errorf("guard of %s transition %d is cached, but fails: %w", p.Name, ti, err)
			}
			if cached := c.enabled[g>>6]&(1<<(g&63)) != 0; cached != ok {
				return n, fmt.Errorf("guard of %s transition %d is cached as %v, but holds %v (state %s)",
					p.Name, ti, cached, ok, st.Key())
			}
			n++
		}
	}
	return n, nil
}

// CheckGuardCacheOnEveryStep makes every cached window evaluation of rt
// first run checkGuardCache on its cache and state, failing the evaluation
// on a mismatch. The returned counter counts the compared bits; it is safe
// to read while several goroutines step the runtime.
func (rt *Runtime) CheckGuardCacheOnEveryStep() *atomic.Int64 {
	n := new(atomic.Int64)
	rt.guardHook = func(c *GuardCache, st *State) error {
		k, err := rt.checkGuardCache(c, st)
		n.Add(int64(k))
		return err
	}
	return n
}

// GuardCached reports whether the guard of the part's transition is one a
// GuardCache remembers, and whether firing m can change its value.
func (rt *Runtime) GuardCached(p Part, m *Move) (cached, stale bool) {
	g := rt.procProgs[p.Proc].trans[p.Trans].cached
	if g < 0 {
		return false, false
	}
	for _, q := range m.Parts {
		if rt.procProgs[q.Proc].trans[q.Trans].stale[g>>6]&(1<<(g&63)) != 0 {
			return true, true
		}
	}
	return true, false
}
