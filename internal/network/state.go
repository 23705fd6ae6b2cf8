// Package network implements the Network of Event-Data Automata (NEDA): the
// executable composition of the STA processes of a SLIM model. It exposes
// the operations path generation needs — the enabled discrete moves of a
// state (with multiway event synchronization), the invariant-bounded
// maximum delay, per-move enabling windows as a function of the delay, and
// state successors for timed and discrete steps.
package network

import (
	"strconv"

	"slimsim/internal/expr"
	"slimsim/internal/sta"
)

// State is a global configuration: one location per process, a value per
// global variable, and the elapsed model time.
type State struct {
	// Locs holds the current location of each process, indexed like
	// Runtime.Processes.
	Locs []sta.LocID
	// Vals holds the current value of each global variable, indexed by
	// expr.VarID.
	Vals []expr.Value
	// Time is the global elapsed time.
	Time float64
}

// Clone returns a deep copy of the state.
func (s *State) Clone() State {
	out := State{
		Locs: make([]sta.LocID, len(s.Locs)),
		Vals: make([]expr.Value, len(s.Vals)),
		Time: s.Time,
	}
	copy(out.Locs, s.Locs)
	copy(out.Vals, s.Vals)
	return out
}

// CopyFrom overwrites s with src without allocating. The backing arrays of
// s must already have src's lengths (states of the same runtime).
func (s *State) CopyFrom(src *State) {
	copy(s.Locs, src.Locs)
	copy(s.Vals, src.Vals)
	s.Time = src.Time
}

// Key returns a canonical string identifying the discrete part of the state
// (locations and variable values, not time). It is used for explicit state
// space exploration of untimed models and for trace deduplication.
func (s *State) Key() string {
	return string(s.AppendKey(make([]byte, 0, 4*len(s.Locs)+8*len(s.Vals))))
}

// AppendKey appends the canonical key of the state's discrete part to buf
// and returns the extended buffer. Callers that probe maps with
// map[string(buf)] avoid the per-visit string allocation Key incurs.
func (s *State) AppendKey(buf []byte) []byte {
	for i, l := range s.Locs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(l), 10)
	}
	buf = append(buf, '|')
	for i, v := range s.Vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = v.AppendText(buf)
	}
	return buf
}

// env adapts a State to expr.Env / expr.RateEnv for a given runtime. A
// Scratch's env also holds pending, the flows its current step still has to
// recompute (see Runtime.propagate); it is empty between steps.
type env struct {
	rt      *Runtime
	st      *State
	pending bitset
}

var _ expr.RateEnv = (*env)(nil)

// VarValue implements expr.Env.
func (e *env) VarValue(id expr.VarID) expr.Value {
	return e.st.Vals[id]
}

// VarRate implements expr.RateEnv. Variables the runtime does not classify
// as timed (see Runtime.Timed) have rate 0. Clocks advance at rate 1,
// continuous variables at the rate declared by the owning process's current
// location (default 0), and flow variables at the derived rate of their
// defining expression.
func (e *env) VarRate(id expr.VarID) float64 {
	if !e.rt.timed[id] {
		return 0
	}
	if code := e.rt.flowRate[id]; code != nil {
		a, err := code(e)
		if err != nil {
			// Non-numeric (e.g. Boolean) flows are constant during
			// a delay; report rate 0.
			return 0
		}
		return a.B
	}
	if r := e.rt.contRates[id]; r != nil {
		return r.rateIn(e.st)
	}
	return 1 // a clock without trajectory equations
}

// contRate records which process locations set a variable's derivative.
type contRate struct {
	proc int // owning process index
	// perLoc holds the rate in each location of the owning process, indexed
	// by LocID: the declared rate, or 1 for clocks and 0 for continuous
	// variables where none is declared.
	perLoc []float64
}

func (c *contRate) rateIn(st *State) float64 {
	return c.perLoc[st.Locs[c.proc]]
}
