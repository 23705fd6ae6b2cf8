// Package strategy implements the simulator's resolution of
// non-determinism (paper §III-B). The input model may leave open both
// *when* the next discrete transition fires (underspecification of time)
// and *which* transition fires (underspecification of choice). A Strategy
// resolves the former; the latter is always resolved uniformly
// (equiprobability) among the transitions enabled at the chosen instant.
//
// Four automated strategies are provided, mirroring the paper:
//
//   - ASAP delays to the first instant any transition becomes enabled
//     ("urgent" semantics, as in MODES).
//   - Progressive samples uniformly from the exact union of enabling
//     intervals (as in UPPAAL-SMC).
//   - Local ignores guards and samples uniformly from the delays the
//     current invariants allow.
//   - MaxTime waits as long as the invariants permit (useful for finding
//     actionlocks).
//
// A fifth, Input, defers every decision to a user-supplied callback,
// reproducing the interactive mode of the tool.
//
// Strategies do not detect locks. The engine asks a strategy only when at
// least one candidate window is non-empty; when none is, nothing guarded
// can fire, and unless a Markovian move fires first the engine itself
// closes the path as a lock after waiting Cap.
package strategy

import (
	"fmt"
	"math"

	"slimsim/internal/intervals"
	"slimsim/internal/rng"
)

// Labeler renders the label of a candidate move on demand, so a strategy
// that never displays labels never pays for rendering them. The engine
// passes the step's move set (*network.MoveSet).
type Labeler interface {
	// Label returns the label of candidate move i, indexed like
	// Context.Windows.
	Label(i int) string
}

// Context presents one scheduling decision to a strategy. All windows are
// pre-intersected with the invariant-allowed delay range [0, MaxDelay], and
// at least one of them is non-empty.
type Context struct {
	// Now is the current model time.
	Now float64
	// MaxDelay is the invariant bound D (possibly +inf).
	MaxDelay float64
	// MaxAttained reports whether delaying exactly MaxDelay is allowed.
	MaxAttained bool
	// Horizon is the remaining time budget of the property (bound − now);
	// used to cap unbounded waits. It is ≥ 0, and +Inf when the property
	// bound is +Inf.
	Horizon float64
	// Windows holds, per candidate guarded move, the delay set at which
	// the move is enabled. The engine builds the windows in Arena and
	// reuses both for the next step, so they are valid only during this
	// decision: a strategy, an Input's Ask callback included, must not
	// keep them.
	Windows []intervals.Set
	// Arena holds the sets a strategy builds from Windows; they live as
	// long as the windows do. Nil allocates them.
	Arena *intervals.Arena
	// Labels describes each candidate move for interactive display,
	// indexed like Windows and rendered only when asked. It may be nil.
	Labels Labeler
	// Rng drives the strategy's random choices.
	Rng *rng.Source
	// EnabledBuf is an optional reusable backing array for
	// Choice.Enabled. When the engine reuses one Context across steps,
	// enabled-move collection stops allocating; the Enabled slice of a
	// Choice is then only valid until the next Choose call.
	EnabledBuf []int
}

// Choice is a strategy's decision.
type Choice struct {
	// Delay is the amount of time to let pass before acting.
	Delay float64
	// Enabled lists the indices of candidate moves enabled after Delay;
	// the engine picks among them uniformly. It may be empty, in which
	// case the engine only advances time.
	Enabled []int
	// Timelocked reports that no candidate is enabled at any delay the
	// strategy may choose; Delay then holds the wait the engine should
	// still perform (to let exponential competitors fire or the property
	// bound expire).
	Timelocked bool
}

// Strategy resolves underspecification of time.
type Strategy interface {
	// Name returns the CLI name of the strategy.
	Name() string
	// Choose picks a delay and the eligible moves. The engine calls it
	// only when at least one of ctx.Windows is non-empty.
	Choose(ctx *Context) (Choice, error)
}

// epsNudge is the tie-breaking nudge used when an enabling window is
// left-open and its infimum is therefore not attainable.
const epsNudge = 1e-9

// Cap returns the effective maximum wait: the invariant bound, or the
// property horizon (plus a nudge so the bound is strictly exceeded and the
// property decides) when invariants allow unbounded delay. It is +Inf only
// when neither limits the wait: no invariant and a property bound of +Inf.
func (c *Context) Cap() float64 {
	if math.IsInf(c.MaxDelay, 1) {
		return c.Horizon + 1
	}
	return c.MaxDelay
}

// enabledAt collects the candidate moves whose window contains d into the
// context's reusable buffer.
func (c *Context) enabledAt(d float64) []int {
	out := c.EnabledBuf[:0]
	for i, w := range c.Windows {
		if w.Contains(d) {
			out = append(out, i)
		}
	}
	c.EnabledBuf = out
	return out
}

// errUnbounded is the error of a strategy that would have to wait out, or
// sample from, an unbounded delay range.
func errUnbounded(name string) error {
	return fmt.Errorf("strategy: %s needs a bounded wait, but the property bound is +Inf and no invariant bounds the delay", name)
}

// unionWindows returns the union of all enabling windows, built in the
// context's arena.
func (c *Context) unionWindows() intervals.Set {
	u := intervals.EmptySet()
	for _, w := range c.Windows {
		u = c.Arena.Union(u, w)
	}
	return u
}

// ASAP implements the urgent strategy: the first instant at which any
// discrete transition is enabled is chosen; among the transitions enabled
// there one is selected uniformly by the engine.
type ASAP struct{}

var _ Strategy = ASAP{}

// Name implements Strategy.
func (ASAP) Name() string { return "asap" }

// Choose implements Strategy.
func (ASAP) Choose(ctx *Context) (Choice, error) {
	inf, attained := ctx.unionWindows().Inf()
	d := inf
	if !attained {
		d = inf + epsNudge
	}
	enabled := ctx.enabledAt(d)
	if len(enabled) == 0 {
		// The nudge overshot an isolated point; fall back to the
		// infimum itself.
		d = inf
		enabled = ctx.enabledAt(d)
	}
	return Choice{Delay: d, Enabled: enabled}, nil
}

// MaxTime delays as much as the invariants allow before acting.
type MaxTime struct{}

var _ Strategy = MaxTime{}

// Name implements Strategy.
func (MaxTime) Name() string { return "maxtime" }

// Choose implements Strategy.
func (MaxTime) Choose(ctx *Context) (Choice, error) {
	d := ctx.Cap()
	if math.IsInf(d, 1) {
		return Choice{}, errUnbounded("maxtime")
	}
	if !ctx.MaxAttained && !math.IsInf(ctx.MaxDelay, 1) {
		d -= epsNudge
	}
	// No fallback: if nothing is enabled at the maximal delay, the
	// engine just lets the time pass — possibly stranding the model,
	// which is precisely how MaxTime exposes actionlocks (§III-B).
	return Choice{Delay: d, Enabled: ctx.enabledAt(d)}, nil
}

// Progressive samples the delay uniformly from the union of the exact
// enabling intervals of all candidate moves.
type Progressive struct{}

var _ Strategy = Progressive{}

// Name implements Strategy.
func (Progressive) Name() string { return "progressive" }

// Choose implements Strategy.
func (Progressive) Choose(ctx *Context) (Choice, error) {
	// Clip unbounded enabling sets to the horizon so the uniform
	// distribution exists.
	clip := ctx.Arena.Of(intervals.Closed(0, ctx.Cap()))
	clipped := ctx.Arena.Intersect(ctx.unionWindows(), clip)
	if clipped.Empty() {
		return Choice{Delay: ctx.Cap(), Timelocked: true}, nil
	}
	if sup, _ := clipped.Sup(); math.IsInf(sup, 1) {
		return Choice{}, errUnbounded("progressive")
	}
	d, ok := clipped.SampleUniform(ctx.Rng.Float64())
	if !ok {
		return Choice{}, fmt.Errorf("strategy: progressive could not sample from %v", clipped)
	}
	enabled := ctx.enabledAt(d)
	if len(enabled) == 0 {
		// Sampled a boundary point excluded by openness; nudge
		// inward.
		if inf, _ := clipped.Inf(); inf <= d {
			d += epsNudge
		}
		enabled = ctx.enabledAt(d)
	}
	return Choice{Delay: d, Enabled: enabled}, nil
}

// Local samples the delay uniformly from everything the invariants allow,
// ignoring guards; nothing may be enabled at the sampled instant, in which
// case the engine just lets time pass and asks again.
type Local struct{}

var _ Strategy = Local{}

// Name implements Strategy.
func (Local) Name() string { return "local" }

// Choose implements Strategy.
func (Local) Choose(ctx *Context) (Choice, error) {
	hi := ctx.Cap()
	if math.IsInf(hi, 1) {
		return Choice{}, errUnbounded("local")
	}
	d := ctx.Rng.Uniform(0, hi)
	return Choice{Delay: d, Enabled: ctx.enabledAt(d)}, nil
}

// Input defers decisions to a callback — the paper's interactive strategy.
// The callback receives the context and returns the chosen delay; the
// enabled set is derived from it. The engine's uniform pick among enabled
// moves can be overridden by returning a single-element preference.
type Input struct {
	// Ask returns the delay to schedule and, optionally, the index of
	// the specific move to fire (-1 to let the engine pick uniformly).
	Ask func(ctx *Context) (delay float64, move int, err error)
}

var _ Strategy = Input{}

// Name implements Strategy.
func (Input) Name() string { return "input" }

// Choose implements Strategy.
func (s Input) Choose(ctx *Context) (Choice, error) {
	if s.Ask == nil {
		return Choice{}, fmt.Errorf("strategy: input strategy has no callback")
	}
	d, move, err := s.Ask(ctx)
	if err != nil {
		return Choice{}, fmt.Errorf("strategy: input callback: %w", err)
	}
	switch {
	case !(d >= 0) || math.IsInf(d, 1):
		return Choice{}, fmt.Errorf("strategy: input callback chose delay %g, want a finite delay ≥ 0", d)
	case d > ctx.MaxDelay || (d == ctx.MaxDelay && !ctx.MaxAttained):
		return Choice{}, fmt.Errorf("strategy: input callback chose delay %g, which the invariant bound %g does not allow", d, ctx.MaxDelay)
	}
	if move >= 0 {
		if move >= len(ctx.Windows) {
			return Choice{}, fmt.Errorf("strategy: input callback chose move %d of %d", move, len(ctx.Windows))
		}
		if !ctx.Windows[move].Contains(d) {
			return Choice{}, fmt.Errorf("strategy: input callback chose move %d which is not enabled after %g", move, d)
		}
		ctx.EnabledBuf = append(ctx.EnabledBuf[:0], move)
		return Choice{Delay: d, Enabled: ctx.EnabledBuf}, nil
	}
	return Choice{Delay: d, Enabled: ctx.enabledAt(d)}, nil
}

// ByName returns the automated strategy with the given CLI name.
func ByName(name string) (Strategy, error) {
	switch name {
	case "asap":
		return ASAP{}, nil
	case "progressive":
		return Progressive{}, nil
	case "local":
		return Local{}, nil
	case "maxtime":
		return MaxTime{}, nil
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q (want asap, progressive, local or maxtime)", name)
	}
}
