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
// pre-intersected with the invariant-allowed delay range [0, MaxDelay].
type Context struct {
	// MaxDelay is the invariant bound D (possibly +inf).
	MaxDelay float64
	// MaxAttained reports whether delaying exactly MaxDelay is allowed.
	MaxAttained bool
	// Horizon is the remaining time budget of the property (bound − now);
	// used to cap unbounded waits. Always finite and ≥ 0.
	Horizon float64
	// Windows holds, per candidate guarded move, the delay set at which
	// the move is enabled.
	Windows []intervals.Set
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
	// Timelocked reports that no candidate is enabled at any allowed
	// delay; Delay then holds the wait the engine should still perform
	// (to let exponential competitors fire or the property bound
	// expire).
	Timelocked bool
}

// Strategy resolves underspecification of time.
type Strategy interface {
	// Name returns the CLI name of the strategy.
	Name() string
	// Choose picks a delay and the eligible moves.
	Choose(ctx *Context) (Choice, error)
}

// epsNudge is the tie-breaking nudge used when an enabling window is
// left-open and its infimum is therefore not attainable.
const epsNudge = 1e-9

// cap returns the effective maximum wait: the invariant bound, or the
// property horizon (plus a nudge so the bound is strictly exceeded and the
// property decides) when invariants allow unbounded delay.
func (c *Context) cap() float64 {
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

// unionWindows returns the union of all enabling windows.
func unionWindows(windows []intervals.Set) intervals.Set {
	u := intervals.EmptySet()
	for _, w := range windows {
		u = u.Union(w)
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
	u := unionWindows(ctx.Windows)
	if u.Empty() {
		return Choice{Delay: ctx.cap(), Timelocked: true}, nil
	}
	inf, attained := u.Inf()
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
	u := unionWindows(ctx.Windows)
	if u.Empty() {
		return Choice{Delay: ctx.cap(), Timelocked: true}, nil
	}
	d := ctx.cap()
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
	u := unionWindows(ctx.Windows)
	if u.Empty() {
		return Choice{Delay: ctx.cap(), Timelocked: true}, nil
	}
	// Clip unbounded enabling sets to the horizon so the uniform
	// distribution exists.
	clip := intervals.FromInterval(intervals.Closed(0, ctx.cap()))
	clipped := u.Intersect(clip)
	if clipped.Empty() {
		return Choice{Delay: ctx.cap(), Timelocked: true}, nil
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
	u := unionWindows(ctx.Windows)
	if u.Empty() {
		return Choice{Delay: ctx.cap(), Timelocked: true}, nil
	}
	d := ctx.Rng.Uniform(0, ctx.cap())
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
	if d < 0 {
		return Choice{}, fmt.Errorf("strategy: input callback chose negative delay %g", d)
	}
	if move >= 0 {
		if move >= len(ctx.Windows) {
			return Choice{}, fmt.Errorf("strategy: input callback chose move %d of %d", move, len(ctx.Windows))
		}
		if !ctx.Windows[move].Contains(d) {
			return Choice{}, fmt.Errorf("strategy: input callback chose move %d which is not enabled after %g", move, d)
		}
		return Choice{Delay: d, Enabled: []int{move}}, nil
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
