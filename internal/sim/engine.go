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
// current state's move set and guard cache, two states the step loop
// ping-pongs between and the reused strategy context, whose Windows slice
// backs the step's windows. Every interval set a step builds lives in the
// network scratch's arena, which the step resets first.
type pathScratch struct {
	net      *network.Scratch
	moves    network.MoveSet
	guards   *network.GuardCache
	stA, stB network.State
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
		net:    e.rt.NewScratch(),
		guards: e.rt.NewGuardCache(),
		stA:    e.rt.NewState(),
		stB:    e.rt.NewState(),
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

// samplePath generates one path from the initial state in the arena ps.
func (e *Engine) samplePath(ps *pathScratch, src *rng.Source) (PathResult, error) {
	res, _, err := e.walk(ps, src, nil, NoPromotion, nil, nil)
	return res, err
}

// walk is the step loop of every sampled path and branch, in the arena ps.
// It starts from start (nil means the initial state) and runs until the
// property decides or, with a non-nil level, until the current state's
// level reaches target. On that promotion it copies the state into
// promoted and reports true; the result then holds only Steps and EndTime,
// the crossing time.
func (e *Engine) walk(ps *pathScratch, src *rng.Source, start *network.State, target int, level LevelFunc, promoted *network.State) (PathResult, bool, error) {
	res := PathResult{}
	defer func() { e.stats.steps.Add(int64(res.Steps)) }()

	// The step loop ping-pongs between the two pooled states: each step
	// reads cur and leaves its successor in the state it returns.
	cur, nxt := &ps.stA, &ps.stB
	if start == nil {
		if err := ps.net.InitialStateInto(cur); err != nil {
			return PathResult{}, false, err
		}
	} else {
		cur.CopyFrom(start)
	}
	// The pooled arena's cache may still describe the previous path.
	ps.guards.Reset()

	verdict, err := e.eval.AtState(ps.net.Env(cur), cur.Time)
	if err != nil {
		return PathResult{}, false, err
	}
	res.DecidedAt = cur.Time
	for verdict == prop.Undecided {
		// A crossing is seen only while the property is undecided, so a
		// verdict wins over a crossing at the same state. The start
		// state itself may already be at or above the target.
		if level != nil && level(cur.Locs) >= target {
			promoted.CopyFrom(cur)
			res.EndTime = cur.Time
			return res, true, nil
		}
		if res.Steps >= e.cfg.MaxSteps {
			return PathResult{}, false, fmt.Errorf("sim: path exceeded %d steps at time %g (Zeno or divergent model?)",
				e.cfg.MaxSteps, cur.Time)
		}
		res.Steps++

		var newCur *network.State
		verdict, newCur, err = e.step(ps, cur, nxt, src, &res)
		if err != nil {
			return PathResult{}, false, err
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
	return res, false, nil
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

// apply wraps Scratch.ApplyInto with the guard cache's invalidation and the
// observer hook. label is the move's trace label, read only when an
// observer is attached.
func (e *Engine) apply(ps *pathScratch, out, src *network.State, m *network.Move, label string) error {
	if err := ps.net.ApplyInto(out, src, m); err != nil {
		return err
	}
	ps.guards.Invalidate(m)
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
	// No set built in the previous step is read any more: neither the
	// strategy's Choice nor the observer keeps one.
	arena := ps.net.Arena()
	arena.Reset()
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
	// Time-invariant guards are answered by the path's guard cache.
	clip := network.DelayClip(arena, maxD, attained)
	if cap(ps.ctx.Windows) < len(guarded) {
		ps.ctx.Windows = make([]intervals.Set, len(guarded))
	}
	windows := ps.ctx.Windows[:len(guarded)]
	open := false
	for i := range guarded {
		w, werr := ps.net.Window(cur, guarded[i], ps.guards)
		if werr != nil {
			return 0, nil, werr
		}
		windows[i] = arena.Intersect(w, clip)
		open = open || !windows[i].Empty()
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
	// When no window is open nothing guarded will ever fire: the strategy
	// has nothing to decide, and the wait is the longest one allowed.
	ps.ctx.Now = cur.Time
	ps.ctx.MaxDelay = maxD
	ps.ctx.MaxAttained = attained
	ps.ctx.Horizon = math.Max(0, e.cfg.Property.Bound-cur.Time)
	ps.ctx.Windows = windows
	ps.ctx.Arena = arena
	ps.ctx.Labels = cm
	ps.ctx.Rng = src
	choice := strategy.Choice{Delay: ps.ctx.Cap(), Timelocked: true}
	if open {
		if choice, err = e.cfg.Strategy.Choose(&ps.ctx); err != nil {
			return 0, nil, err
		}
	}

	// The actual delay is the earlier of the exponential winner and the
	// strategy's schedule; an exponential due after the invariant
	// deadline loses the race.
	delay := choice.Delay
	fireExp := expWinner >= 0 && (choice.Timelocked || expDelay < delay) && expDelay <= maxD
	if fireExp {
		delay = expDelay
	} else if choice.Timelocked {
		// Nothing can fire: a lock. Zero-delay locks in urgent
		// locations are deadlocks (no action, time frozen by urgency);
		// locks at an invariant boundary are timelocks.
		lock := TermTimelock
		if maxD == 0 && e.rt.UrgentNow(cur) {
			lock = TermDeadlock
		}
		v, err := e.wait(ps, cur, nxt, delay, lock, res)
		return v, nxt, err
	}
	if v, err := e.wait(ps, cur, nxt, delay, 0, res); err != nil || v != prop.Undecided {
		return v, nxt, err
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

// wait lets d pass from cur into nxt, checking the property throughout. A
// verdict reached during the wait ends the path as decided. Otherwise a
// wait with lock set is the last one of a path on which nothing can fire
// any more: the lock policy either aborts the analysis or ends the path as
// that lock once d has passed. A wait that no invariant and no property
// bound limits (d = +Inf) lasts only until the property decides; a path
// it never decides is dead where it stands.
func (e *Engine) wait(ps *pathScratch, cur, nxt *network.State, d float64, lock Termination, res *PathResult) (prop.Verdict, error) {
	v, at := prop.Undecided, 0.0
	if d > 0 {
		var err error
		if v, at, err = e.eval.DuringDelay(ps.net.Env(cur), ps.net.Arena(), cur.Time, d); err != nil {
			return 0, err
		}
	}
	if math.IsInf(d, 1) {
		if v == prop.Undecided {
			d, lock = 0, TermDeadlock
		} else {
			d = at - cur.Time
		}
	}
	if v == prop.Undecided && lock != 0 && e.cfg.Locks == LockErrors {
		return 0, fmt.Errorf("sim: %s at time %g", lock, cur.Time)
	}
	if err := e.advance(ps, nxt, cur, d); err != nil {
		return 0, err
	}
	switch {
	case v != prop.Undecided:
		res.Termination = TermDecided
		res.DecidedAt = at
	case lock != 0:
		var err error
		if v, err = e.eval.AtPathEnd(ps.net.Env(nxt), nxt.Time); err != nil {
			return 0, err
		}
		res.Termination = lock
		res.DecidedAt = nxt.Time
	}
	return v, nil
}
