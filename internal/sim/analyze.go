package sim

import (
	"fmt"
	"sync"
	"time"

	"slimsim/internal/network"
	"slimsim/internal/parallel"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/stats"
	"slimsim/internal/telemetry"
)

// AnalysisConfig configures a complete statistical analysis run.
type AnalysisConfig struct {
	// Config is the per-path configuration.
	Config
	// Params are the accuracy knobs (δ, ε, and the relative error of
	// stats.MethodRelative).
	Params stats.Params
	// Method selects the sample-count generator (default
	// Chernoff–Hoeffding). stats.MethodRelative is the stopping rule for
	// rare-event runs, where any fixed absolute ε is either hopeless or
	// meaningless.
	Method stats.Method
	// Workers is the number of parallel samplers (default 1).
	Workers int
	// Seed makes the run reproducible; runs with equal seeds and worker
	// counts produce identical results.
	Seed uint64
	// Telemetry, when non-nil, receives per-run metrics: each worker
	// gets a path recorder as its observer, and outcomes are committed
	// in the parallel collector's deterministic consumption order. Nil
	// telemetry adds no work to the sampling loop.
	Telemetry *telemetry.Collector
}

// Report is the outcome of a statistical analysis.
type Report struct {
	// Estimate is the final Bernoulli estimator state; Estimate.Mean()
	// is the reported probability. In a sweep it is the horizon cell's.
	Estimate stats.Estimate
	// Probability is the estimated probability that the property holds.
	Probability float64
	// Paths is the number of simulated paths. In a sweep it is the
	// number of shared paths: the per-cell maximum, driven by the
	// slowest-converging cell.
	Paths int
	// Deadlocks and Timelocks count consumed paths that ended in a lock.
	Deadlocks, Timelocks int
	// TotalSteps is the number of simulation steps over the consumed
	// paths. Like the estimate, these counts leave out paths workers
	// overdrew past the stopping point.
	TotalSteps int64
	// Elapsed is the wall-clock duration of the sampling phase.
	Elapsed time.Duration
	// Strategy and Method echo the configuration.
	Strategy string
	Method   stats.Method
}

// CellReport is the result of one (property, bound) cell of a sweep.
type CellReport struct {
	// Bound is the cell's time bound u.
	Bound float64
	// Estimate is the cell's estimator state, frozen at the cell's own
	// sequential stopping time.
	Estimate stats.Estimate
	// Probability is the estimated probability that the property holds
	// under this cell's bound.
	Probability float64
	// Paths is the number of shared paths this cell consumed before its
	// stopping rule fired.
	Paths int
}

// SweepReport is the outcome of a shared-path multi-bound analysis.
type SweepReport struct {
	// Report summarizes the shared stream: its counts cover every
	// consumed path, and its Estimate and Probability are the horizon
	// cell's.
	Report
	// Cells holds the per-bound results in ascending bound order. The
	// last cell is bit-identical to a single-bound Analyze run at the
	// sweep horizon.
	Cells []CellReport
}

// workerState is the per-worker sampling state, created eagerly so the
// sampling hot loop is lock-free: each worker owns its RNG stream, engine
// view, path arena and recorder, touched only from its own goroutine until
// the parallel run returns. The one shared part is the queue of
// finished-path tallies, handed from the worker to the collector under a
// lock taken once per path.
type workerState struct {
	src *rng.Source
	eng *Engine
	// ps is the worker's own arena, held for the whole run rather than
	// drawn from the engine's pool per path: its arenas stay grown across
	// the worker's paths, and it becomes garbage with the run instead of
	// lingering in a pool of a finished engine.
	ps  *pathScratch
	rec *telemetry.PathRecorder

	mu sync.Mutex
	// finished holds, in iteration order, the tallies of this worker's
	// paths from finished[head] on that the collector has not consumed
	// yet. Paths overdrawn past the stopping point stay here and are
	// never counted.
	finished []pathTally
	head     int
}

// pathTally is what the run summary counts of one path.
type pathTally struct {
	steps int64
	term  Termination
}

// push queues the tally of the worker's latest path. The queue is
// compacted in place once its backing array is full, so it stops
// allocating when it has grown to the collector's run-ahead window.
func (ws *workerState) push(t pathTally) {
	ws.mu.Lock()
	if len(ws.finished) == cap(ws.finished) && ws.head > 0 {
		n := copy(ws.finished, ws.finished[ws.head:])
		ws.finished = ws.finished[:n]
		ws.head = 0
	}
	ws.finished = append(ws.finished, t)
	ws.mu.Unlock()
}

// pop returns the tally of the worker's oldest unconsumed path. The
// collector consumes each worker's paths in iteration order, so it is the
// path whose outcome was just consumed.
func (ws *workerState) pop() pathTally {
	ws.mu.Lock()
	t := ws.finished[ws.head]
	ws.head++
	ws.mu.Unlock()
	return t
}

// samplePath draws one path through the worker's engine view, queueing its
// tally and the pending-path telemetry for the collector.
func (ws *workerState) samplePath(tel *telemetry.Collector, worker, iteration int) (PathResult, error) {
	if ws.rec != nil {
		ws.rec.Begin()
	}
	res, err := ws.eng.samplePath(ws.ps, ws.src)
	if err != nil {
		return PathResult{}, err
	}
	ws.push(pathTally{steps: int64(res.Steps), term: res.Termination})
	if ws.rec != nil {
		tel.RecordPath(worker, iteration,
			ws.rec.Finish(res.Steps, res.EndTime, res.Termination.String(), res.Satisfied))
	}
	return res, nil
}

// newWorkerStates derives one workerState per worker from the run seed:
// worker w samples from the split stream seed→w, and with telemetry each
// worker gets its own path recorder as observer (preserving any
// caller-configured observer).
func newWorkerStates(engine *Engine, cfg AnalysisConfig, workers int) []*workerState {
	states := make([]*workerState, workers)
	root := rng.New(cfg.Seed)
	tel := cfg.Telemetry
	for w := range states {
		ws := &workerState{src: root.Split(uint64(w)), eng: engine, ps: engine.newScratch()}
		if tel != nil {
			ws.rec = tel.Recorder(w)
			var obs Observer = ws.rec
			if cfg.Observer != nil {
				obs = TeeObserver{A: cfg.Observer, B: ws.rec}
			}
			ws.eng = engine.WithObserver(obs)
		}
		states[w] = ws
	}
	return states
}

// runTally is the run summary over consumed paths: like the estimate, a
// pure function of (model, property, seed, workers).
type runTally struct {
	deadlocks, timelocks int
	steps                int64
}

// add counts the path whose outcome the collector just consumed.
func (s *runTally) add(t pathTally) {
	s.steps += t.steps
	switch t.term {
	case TermDeadlock:
		s.deadlocks++
	case TermTimelock:
		s.timelocks++
	}
}

// Analyze estimates the probability of the configured property using Monte
// Carlo simulation: a one-cell sweep at cfg.Property.Bound.
func Analyze(rt *network.Runtime, cfg AnalysisConfig) (Report, error) {
	rep, err := analyzeCells(rt, cfg, []float64{cfg.Property.Bound})
	return rep.Report, err
}

// AnalyzeSweep estimates the probability of the configured property under
// every time bound in bounds (non-negative, not NaN, strictly ascending)
// from one shared path stream. cfg.Property.Bound is overridden by the
// sweep horizon; everything else configures the run exactly as Analyze.
// With telemetry the run report gains a sweep section with every cell.
func AnalyzeSweep(rt *network.Runtime, cfg AnalysisConfig, bounds []float64) (SweepReport, error) {
	rep, err := analyzeCells(rt, cfg, bounds)
	if err == nil && cfg.Telemetry != nil {
		cfg.Telemetry.SetSweep(rep.metrics(cfg.Params.Delta))
	}
	return rep, err
}

// analyzeCells is the sampling pipeline behind Analyze and AnalyzeSweep: the
// engine samples paths bounded at the sweep horizon (the largest bound)
// and records the decision time of each verdict; prop.Sweep maps that to
// a per-bound outcome vector, and stats.MultiEstimator runs one stopping
// rule per cell off the shared stream until the slowest cell converges.
// The fan-out goes through parallel.RunMulti's fair-round collector, so
// every estimate is a pure function of (model, property, seed, worker
// count), and the horizon cell is bit-identical to a one-cell run at the
// horizon.
func analyzeCells(rt *network.Runtime, cfg AnalysisConfig, bounds []float64) (SweepReport, error) {
	sweep, err := prop.NewSweep(cfg.Property, bounds)
	if err != nil {
		return SweepReport{}, err
	}
	// Paths must run to the largest bound so every cell is decided.
	cfg.Property.Bound = sweep.Horizon()
	engine, err := NewEngine(rt, cfg.Config)
	if err != nil {
		return SweepReport{}, err
	}
	method := cfg.Method
	if method == 0 {
		method = stats.MethodChernoff
	}
	me, err := stats.NewMultiEstimator(method, cfg.Params, sweep.Cells())
	if err != nil {
		return SweepReport{}, err
	}

	workers := max(cfg.Workers, 1)
	states := newWorkerStates(engine, cfg, workers)
	tel := cfg.Telemetry

	sampler := func(worker, iteration int, out []bool) error {
		res, err := states[worker].samplePath(tel, worker, iteration)
		if err != nil {
			return err
		}
		sweep.Outcomes(res.Satisfied, res.DecidedAt, out)
		return nil
	}

	// The shared stream's scalar outcome is the horizon cell's verdict —
	// identical to res.Satisfied — so the Sampling telemetry of a sweep
	// reads exactly like a single-bound run at the horizon.
	last := sweep.Cells() - 1
	var stream stats.Estimate
	var sum runTally
	popts := parallel.MultiOptions{Workers: workers, OnSample: func(worker, _ int, _ []bool) {
		sum.add(states[worker].pop())
	}}
	if tel != nil {
		tel.SetRun(telemetry.RunInfo{
			Strategy: cfg.Strategy.Name(),
			Method:   method.String(),
			Delta:    cfg.Params.Delta,
			Epsilon:  cfg.Params.Epsilon,
			Seed:     cfg.Seed,
			Workers:  workers,
			Bound:    sweep.Horizon(),
		})
		tel.Begin(me.Planned())
		popts.OnSample = func(worker, iteration int, outcomes []bool) {
			sum.add(states[worker].pop())
			stream.Add(outcomes[last])
			tel.Commit(worker, iteration, outcomes[last])
		}
	}

	start := time.Now()
	runErr := parallel.RunMulti(me, sampler, popts)
	elapsed := time.Since(start)
	if tel != nil {
		engineSteps, _, _ := engine.Stats()
		tel.SetEngineStats(engineSteps)
		tel.End(stream, elapsed)
	}
	if runErr != nil {
		return SweepReport{}, fmt.Errorf("sim: analysis failed: %w", runErr)
	}

	cells := make([]CellReport, sweep.Cells())
	for i := range cells {
		est := me.Estimate(i)
		cells[i] = CellReport{
			Bound:       sweep.Bounds()[i],
			Estimate:    est,
			Probability: est.Mean(),
			Paths:       est.Trials,
		}
	}
	return SweepReport{
		Report: Report{
			Estimate:    cells[last].Estimate,
			Probability: cells[last].Probability,
			Paths:       me.Paths(),
			Deadlocks:   sum.deadlocks,
			Timelocks:   sum.timelocks,
			TotalSteps:  sum.steps,
			Elapsed:     elapsed,
			Strategy:    cfg.Strategy.Name(),
			Method:      method,
		},
		Cells: cells,
	}, nil
}

// metrics renders the cells as the telemetry sweep section, with
// confidence intervals at risk delta.
func (r SweepReport) metrics(delta float64) *telemetry.SweepMetrics {
	sm := &telemetry.SweepMetrics{SharedPaths: r.Paths, Cells: make([]telemetry.SweepCell, len(r.Cells))}
	for i, c := range r.Cells {
		lo, hi := stats.ConfidenceInterval(c.Estimate, delta)
		sm.Cells[i] = telemetry.SweepCell{
			Bound:     c.Bound,
			Samples:   c.Estimate.Trials,
			Successes: c.Estimate.Successes,
			Estimate:  c.Probability,
			ConfidenceInterval: &telemetry.CI{
				Level: 1 - delta,
				Lower: lo,
				Upper: hi,
			},
		}
	}
	return sm
}

// String renders the report in the tool's CLI output format.
func (r Report) String() string {
	return fmt.Sprintf("P ≈ %.6f  (paths=%d, strategy=%s, method=%s, deadlocks=%d, timelocks=%d, steps=%d, elapsed=%s)",
		r.Probability, r.Paths, r.Strategy, r.Method, r.Deadlocks, r.Timelocks, r.TotalSteps, r.Elapsed.Round(time.Millisecond))
}

// String renders the sweep report in the tool's CLI output format: one
// line per bound, then the stream summary.
func (r SweepReport) String() string {
	out := ""
	for _, c := range r.Cells {
		out += fmt.Sprintf("P(u=%g) ≈ %.6f  (paths=%d)\n", c.Bound, c.Probability, c.Paths)
	}
	out += fmt.Sprintf("shared paths=%d, strategy=%s, method=%s, deadlocks=%d, timelocks=%d, steps=%d, elapsed=%s",
		r.Paths, r.Strategy, r.Method, r.Deadlocks, r.Timelocks, r.TotalSteps, r.Elapsed.Round(time.Millisecond))
	return out
}
