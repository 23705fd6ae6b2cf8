package network

import (
	"fmt"
	"math"
	"sync/atomic"

	"slimsim/internal/expr"
)

// CheckFlows re-propagates every flow of a copy of st and reports the first
// variable whose bits differ from st's: the oracle dirty-flow propagation
// must match. st itself is left untouched.
func (rt *Runtime) CheckFlows(st *State) error {
	full := st.Clone()
	if err := rt.propagateFlows(&full); err != nil {
		return fmt.Errorf("full propagation: %w", err)
	}
	for i := range st.Vals {
		if !sameBits(st.Vals[i], full.Vals[i]) {
			return fmt.Errorf("flow %s holds %s, full propagation gives %s (state %s)",
				rt.net.Vars[i].Name, st.Vals[i], full.Vals[i], st.Key())
		}
	}
	return nil
}

// CheckFlowsOnEveryStep makes every ApplyInto and AdvanceInto of rt (and so
// every Apply and Advance) run CheckFlows on its successor, failing the step
// on a mismatch. The returned counter counts the checked successors; it is
// safe to read while several goroutines step the runtime.
func (rt *Runtime) CheckFlowsOnEveryStep() *atomic.Int64 {
	n := new(atomic.Int64)
	rt.stepHook = func(st *State) error {
		n.Add(1)
		return rt.CheckFlows(st)
	}
	return n
}

// sameBits reports whether a and b are the same value bit for bit: a real
// compares by its IEEE-754 bits, so −0 differs from 0.
func sameBits(a, b expr.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case expr.KindBool:
		return a.Bool() == b.Bool()
	case expr.KindInt:
		return a.Int() == b.Int()
	case expr.KindReal:
		return math.Float64bits(a.Real()) == math.Float64bits(b.Real())
	}
	return true
}
