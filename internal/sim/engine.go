// Package sim implements the Monte Carlo path generator of slimsim: it
// alternates timed and discrete steps through a network.Runtime, resolves
// non-determinism via a strategy.Strategy, races exponential (Markovian)
// transitions against scheduled delays, evaluates the property along the
// way, and reports a Bernoulli outcome per path. The AnalyzeSweep entry
// point, and Analyze as its one-cell case, couple the generator to a
// stats.MultiEstimator through the bias-free parallel collector.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"slimsim/internal/intervals"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/strategy"
)

// LockPolicy selects how deadlocks and timelocks end a path (paper §III-D):
// either they falsify the property being checked, or they abort the
// analysis with an error.
type LockPolicy int

// Policies.
const (
	// LockViolates treats a dead- or timelocked path as falsifying the
	// property (except invariance, which consults the final state).
	LockViolates LockPolicy = iota + 1
	// LockErrors aborts the analysis when a lock is detected.
	LockErrors
)

// String returns the policy's CLI name.
func (p LockPolicy) String() string {
	switch p {
	case LockViolates:
		return "violate"
	case LockErrors:
		return "error"
	default:
		return "invalid"
	}
}

// Termination describes why a path ended.
type Termination int

// Termination reasons.
const (
	// TermDecided means the property evaluator reached a verdict.
	TermDecided Termination = iota + 1
	// TermDeadlock means no discrete move will ever be possible and
	// time cannot diverge usefully (locked at a point).
	TermDeadlock
	// TermTimelock means invariants block the passage of time but no
	// move is enabled before the bound.
	TermTimelock
	// TermMaxSteps means the step safety valve fired.
	TermMaxSteps
)

// String returns the reason's name.
func (t Termination) String() string {
	switch t {
	case TermDecided:
		return "decided"
	case TermDeadlock:
		return "deadlock"
	case TermTimelock:
		return "timelock"
	case TermMaxSteps:
		return "max-steps"
	default:
		return "invalid"
	}
}

// Observer receives the events of each generated path — used by the trace
// recorder and the interactive mode. Hooks are called synchronously from
// the sampling goroutine; implementations used with parallel workers must
// be safe for concurrent use (or workers must be limited to one).
type Observer interface {
	// OnDelay fires after a timed step: now is the time after the
	// delay.
	OnDelay(now, delay float64)
	// OnMove fires after a discrete transition.
	OnMove(now float64, label string)
	// OnVerdict fires once when the path ends.
	OnVerdict(now float64, label string)
}

// Config configures path generation.
type Config struct {
	// Strategy resolves non-determinism. Required.
	Strategy strategy.Strategy
	// Property is the formula each path is checked against. Required.
	Property prop.Property
	// Locks selects the deadlock/timelock policy (default
	// LockViolates).
	Locks LockPolicy
	// MaxSteps bounds the number of steps per path (default 1e6) as a
	// safety valve against Zeno or divergent models.
	MaxSteps int
	// Observer, when non-nil, receives per-path events.
	Observer Observer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Locks == 0 {
		out.Locks = LockViolates
	}
	if out.MaxSteps == 0 {
		out.MaxSteps = 1_000_000
	}
	return out
}

// PathResult is the outcome of one simulated path.
type PathResult struct {
	// Satisfied reports the Bernoulli outcome.
	Satisfied bool
	// Termination records why the path ended.
	Termination Termination
	// Steps counts discrete and timed steps taken.
	Steps int
	// EndTime is the model time at which the path ended.
	EndTime float64
	// DecidedAt is the model time of the decisive event: the first hit of
	// the goal (reachability/until, Satisfied) or its first failure
	// (invariance, Violated). For verdicts forced by the bound expiring it
	// is the bound itself, and for locks it is the lock time. Together
	// with Satisfied it determines the verdict of the same property under
	// every smaller time bound (see prop.Sweep).
	DecidedAt float64
}

// Engine generates paths for a fixed runtime and configuration. Engines
// are immutable and safe for concurrent use; per-path randomness comes
// from the caller-supplied source and all mutable per-path storage lives
// in pooled scratch arenas.
type Engine struct {
	rt  *network.Runtime
	cfg Config
	ev  prop.Property
	// eval is the compiled property evaluator; it is stateless and shared
	// by every path and worker.
	eval *prop.Evaluator
	// scratch pools pathScratch arenas so steady-state path generation
	// performs O(1) allocations. A pointer so WithObserver copies share
	// the pool.
	scratch *sync.Pool
	// stats aggregates hot-path counters across all paths and workers.
	stats *engineStats
}

// engineStats holds the engine's cumulative counters, updated once per
// path (not per step) to keep atomics off the hot path.
type engineStats struct {
	steps atomic.Int64
}

// pathScratch is the per-path working set: a network evaluation arena, the
// current state's move set, two states the step loop ping-pongs between,
// the window slice handed to the strategy and the reused strategy context.
type pathScratch struct {
	net      *network.Scratch
	moves    network.MoveSet
	stA, stB network.State
	windows  []intervals.Set
	ctx      strategy.Context
}

// NewEngine validates the configuration against the runtime and returns an
// engine.
func NewEngine(rt *network.Runtime, cfg Config) (*Engine, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("sim: no strategy configured")
	}
	c := cfg.withDefaults()
	if err := c.Property.Validate(rt.Net().DeclMap()); err != nil {
		return nil, err
	}
	e := &Engine{rt: rt, cfg: c, ev: c.Property, eval: prop.NewEvaluator(c.Property, rt.Timed), stats: &engineStats{}}
	e.scratch = &sync.Pool{New: func() any { return e.newScratch() }}
	return e, nil
}

// newScratch returns a fresh path arena.
func (e *Engine) newScratch() *pathScratch {
	return &pathScratch{
		net: e.rt.NewScratch(),
		stA: e.rt.NewState(),
		stB: e.rt.NewState(),
	}
}

// Stats returns the engine's cumulative hot-path counters: simulation steps
// over all sampled paths, the move-table reads and the move-table misses.
// Every step reads the static move tables once and never misses, so the
// last two results are (steps, 0); they remain for callers that still
// report a move-cache miss rate, which reads 0, and a later change to the
// benchmark can retire that metric along with them.
func (e *Engine) Stats() (steps int64, reads, misses uint64) {
	n := e.stats.steps.Load()
	return n, uint64(n), 0
}

// WithObserver returns a copy of the engine whose paths report to obs.
// The copy shares the runtime and is as safe for concurrent use as the
// original; the telemetry layer uses it to give each worker its own
// recorder without re-validating the configuration.
func (e *Engine) WithObserver(obs Observer) *Engine {
	e2 := *e
	e2.cfg.Observer = obs
	return &e2
}

// TeeObserver fans each event out to both observers, in order.
type TeeObserver struct {
	A, B Observer
}

// OnDelay implements Observer.
func (t TeeObserver) OnDelay(now, delay float64) {
	t.A.OnDelay(now, delay)
	t.B.OnDelay(now, delay)
}

// OnMove implements Observer.
func (t TeeObserver) OnMove(now float64, label string) {
	t.A.OnMove(now, label)
	t.B.OnMove(now, label)
}

// OnVerdict implements Observer.
func (t TeeObserver) OnVerdict(now float64, label string) {
	t.A.OnVerdict(now, label)
	t.B.OnVerdict(now, label)
}

// SamplePath generates one path and returns its outcome.
func (e *Engine) SamplePath(src *rng.Source) (PathResult, error) {
	ps := e.scratch.Get().(*pathScratch)
	defer e.scratch.Put(ps)
	return e.samplePath(ps, src)
}

// samplePath generates one path in the arena ps.
func (e *Engine) samplePath(ps *pathScratch, src *rng.Source) (PathResult, error) {
	res := PathResult{}
	defer func() { e.stats.steps.Add(int64(res.Steps)) }()

	// The step loop ping-pongs between the two pooled states: each step
	// reads cur and leaves its successor in the state it returns.
	cur, nxt := &ps.stA, &ps.stB
	if err := ps.net.InitialStateInto(cur); err != nil {
		return PathResult{}, err
	}

	verdict, err := e.eval.AtState(ps.net.Env(cur), cur.Time)
	if err != nil {
		return PathResult{}, err
	}
	res.DecidedAt = cur.Time
	for verdict == prop.Undecided {
		if res.Steps >= e.cfg.MaxSteps {
			res.Termination = TermMaxSteps
			res.EndTime = cur.Time
			return res, fmt.Errorf("sim: path exceeded %d steps at time %g (Zeno or divergent model?)",
				e.cfg.MaxSteps, cur.Time)
		}
		res.Steps++

		var newCur *network.State
		verdict, newCur, err = e.step(ps, cur, nxt, src, &res)
		if err != nil {
			return PathResult{}, err
		}
		if newCur != cur {
			cur, nxt = newCur, cur
		}
	}
	res.Satisfied = verdict == prop.Satisfied
	if res.Termination == 0 {
		res.Termination = TermDecided
	}
	res.EndTime = cur.Time
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnVerdict(cur.Time, fmt.Sprintf("%s (%s)", verdict, res.Termination))
	}
	return res, nil
}

// advance wraps Scratch.AdvanceInto with the observer hook.
func (e *Engine) advance(ps *pathScratch, out, src *network.State, d float64) error {
	if err := ps.net.AdvanceInto(out, src, d); err != nil {
		return err
	}
	if e.cfg.Observer != nil && d > 0 {
		e.cfg.Observer.OnDelay(out.Time, d)
	}
	return nil
}

// apply wraps Scratch.ApplyInto with the observer hook. label is the move's
// trace label, read only when an observer is attached.
func (e *Engine) apply(ps *pathScratch, out, src *network.State, m *network.Move, label string) error {
	if err := ps.net.ApplyInto(out, src, m); err != nil {
		return err
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnMove(out.Time, label)
	}
	return nil
}

// step performs one timed-plus-discrete step. It reads cur, uses nxt (and
// possibly cur itself) as successor storage, and returns the property
// verdict (possibly still undecided) together with a pointer to whichever
// of the two states now holds the successor.
func (e *Engine) step(ps *pathScratch, cur, nxt *network.State, src *rng.Source, res *PathResult) (prop.Verdict, *network.State, error) {
	maxD, attained, nowOK, err := ps.net.MaxDelay(cur)
	if err != nil {
		return 0, nil, err
	}
	if !nowOK {
		return 0, nil, network.Internal(
			fmt.Errorf("sim: invariant violated at time %g (ill-formed model)", cur.Time))
	}

	// The candidate moves, composed from the static move tables. Labels
	// are read only by an interactive strategy through the context, or
	// for the fired move when an observer listens.
	cm := &ps.moves
	ps.net.Moves(cm, cur)
	guarded, markovian := cm.Guarded, cm.Markovian

	// Enabling windows of guarded moves, clipped to the allowed delays.
	horizonLeft := math.Max(0, e.cfg.Property.Bound-cur.Time)
	clip := delayClip(maxD, attained)
	if cap(ps.windows) < len(guarded) {
		ps.windows = make([]intervals.Set, len(guarded))
	}
	windows := ps.windows[:len(guarded)]
	for i := range guarded {
		w, werr := ps.net.Window(cur, guarded[i])
		if werr != nil {
			return 0, nil, werr
		}
		windows[i] = w.Intersect(clip)
	}

	// Exponential race among Markovian moves.
	expDelay := math.Inf(1)
	expWinner := -1
	for i := range markovian {
		d := src.Exp(markovian[i].Rate)
		if d < expDelay {
			expDelay = d
			expWinner = i
		}
	}

	// Strategy decision for the guarded moves, through the reused context.
	ps.ctx.MaxDelay = maxD
	ps.ctx.MaxAttained = attained
	ps.ctx.Horizon = horizonLeft
	ps.ctx.Windows = windows
	ps.ctx.Labels = cm
	ps.ctx.Rng = src
	choice, err := e.cfg.Strategy.Choose(&ps.ctx)
	if err != nil {
		return 0, nil, err
	}

	// Detect dead/timelocks: nothing guarded will ever fire and no
	// exponential competitor exists.
	if choice.Timelocked && expWinner == -1 {
		// Zero-delay locks in urgent locations are deadlocks (no
		// action, time frozen by urgency); locks at an invariant
		// boundary are timelocks.
		lockKind := TermTimelock
		if maxD == 0 && e.rt.UrgentNow(cur) {
			lockKind = TermDeadlock
		}
		if math.IsInf(maxD, 1) {
			// Time diverges with no event: the bounded property
			// decides at its bound.
			v, at, derr := e.eval.DuringDelay(ps.net.Env(cur), cur.Time, horizonLeft+1)
			if derr != nil {
				return 0, nil, derr
			}
			if v != prop.Undecided {
				if aerr := e.advance(ps, nxt, cur, horizonLeft+1); aerr != nil {
					return 0, nil, aerr
				}
				res.Termination = TermDecided
				res.DecidedAt = at
				return v, nxt, nil
			}
		}
		if e.cfg.Locks == LockErrors {
			return 0, nil, fmt.Errorf("sim: %s at time %g", lockKind, cur.Time)
		}
		// Let the permitted time pass (the property may still decide
		// during it), then close the path.
		v, at, derr := e.eval.DuringDelay(ps.net.Env(cur), cur.Time, choice.Delay)
		if derr != nil {
			return 0, nil, derr
		}
		if aerr := e.advance(ps, nxt, cur, choice.Delay); aerr != nil {
			return 0, nil, aerr
		}
		if v != prop.Undecided {
			res.Termination = TermDecided
			res.DecidedAt = at
			return v, nxt, nil
		}
		v, perr := e.eval.AtPathEnd(ps.net.Env(nxt), nxt.Time)
		if perr != nil {
			return 0, nil, perr
		}
		res.Termination = lockKind
		res.DecidedAt = nxt.Time
		return v, nxt, nil
	}

	// The actual delay is the earlier of the exponential winner and the
	// strategy's schedule.
	delay := choice.Delay
	fireExp := false
	if expWinner >= 0 && (choice.Timelocked || expDelay < delay) {
		if expDelay <= maxD || math.IsInf(maxD, 1) {
			delay = expDelay
			fireExp = true
		} else {
			// The exponential would fire after the invariant
			// deadline; it loses the race.
			if choice.Timelocked {
				// ... but nothing else can fire either: wait
				// to the deadline and lock.
				if e.cfg.Locks == LockErrors {
					return 0, nil, fmt.Errorf("sim: timelock at time %g", cur.Time)
				}
				v, at, derr := e.eval.DuringDelay(ps.net.Env(cur), cur.Time, maxD)
				if derr != nil {
					return 0, nil, derr
				}
				if aerr := e.advance(ps, nxt, cur, maxD); aerr != nil {
					return 0, nil, aerr
				}
				if v != prop.Undecided {
					res.Termination = TermDecided
					res.DecidedAt = at
					return v, nxt, nil
				}
				v, perr := e.eval.AtPathEnd(ps.net.Env(nxt), nxt.Time)
				if perr != nil {
					return 0, nil, perr
				}
				res.Termination = TermTimelock
				res.DecidedAt = nxt.Time
				return v, nxt, nil
			}
		}
	}

	// Check the property throughout the delay before committing to it.
	if delay > 0 {
		v, at, derr := e.eval.DuringDelay(ps.net.Env(cur), cur.Time, delay)
		if derr != nil {
			return 0, nil, derr
		}
		if v != prop.Undecided {
			if aerr := e.advance(ps, nxt, cur, delay); aerr != nil {
				return 0, nil, aerr
			}
			res.Termination = TermDecided
			res.DecidedAt = at
			return v, nxt, nil
		}
	}

	if err := e.advance(ps, nxt, cur, delay); err != nil {
		return 0, nil, err
	}

	// Fire the discrete move, if any.
	var fired *network.Move
	var firedLabel string
	switch {
	case fireExp:
		fired = markovian[expWinner]
		if e.cfg.Observer != nil {
			firedLabel = cm.MarkLabel(expWinner)
		}
	case len(choice.Enabled) > 0:
		// Equiprobability among the moves enabled at the chosen
		// instant.
		pick := choice.Enabled[src.Choose(len(choice.Enabled))]
		fired = guarded[pick]
		if e.cfg.Observer != nil {
			firedLabel = cm.Label(pick)
		}
	}
	newCur := nxt
	if fired != nil {
		// Apply back into cur: its pre-delay contents are dead now.
		if aerr := e.apply(ps, cur, nxt, fired, firedLabel); aerr != nil {
			return 0, nil, aerr
		}
		newCur = cur
	}

	v, err := e.eval.AtState(ps.net.Env(newCur), newCur.Time)
	if err != nil {
		return 0, nil, err
	}
	if v != prop.Undecided {
		res.Termination = TermDecided
		res.DecidedAt = newCur.Time
	}
	return v, newCur, nil
}

// delayClip returns the delay set the invariants allow: [0, maxD] when the
// bound is attainable, [0, maxD) otherwise.
func delayClip(maxD float64, attained bool) intervals.Set {
	if math.IsInf(maxD, 1) {
		return intervals.FromInterval(intervals.AtLeast(0))
	}
	if attained {
		return intervals.FromInterval(intervals.Closed(0, maxD))
	}
	return intervals.FromInterval(intervals.ClosedOpen(0, maxD))
}
