package sim

import (
	"fmt"
	"sync"
	"time"

	"slimsim/internal/network"
	"slimsim/internal/parallel"
	"slimsim/internal/rng"
	"slimsim/internal/stats"
	"slimsim/internal/telemetry"
)

// AnalysisConfig configures a complete statistical analysis run.
type AnalysisConfig struct {
	// Config is the per-path configuration.
	Config
	// Params are the accuracy knobs (δ, ε).
	Params stats.Params
	// Method selects the sample-count generator (default
	// Chernoff–Hoeffding).
	Method stats.Method
	// RelErr, when positive, replaces the absolute-error generator with
	// the relative-error sequential rule (stats.NewRelative): sampling
	// continues until the CLT half-width is at most RelErr·p̂. This is the
	// stopping rule for rare-event runs, where any fixed absolute ε is
	// either hopeless or meaningless.
	RelErr float64
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
	// is the reported probability.
	Estimate stats.Estimate
	// Probability is the estimated probability that the property holds.
	Probability float64
	// Paths is the number of simulated paths.
	Paths int
	// Deadlocks and Timelocks count consumed paths that ended in a lock.
	Deadlocks, Timelocks int
	// TotalSteps is the number of simulation steps over the consumed
	// paths. Like the estimate, these counts leave out paths workers
	// overdrew past the stopping point.
	TotalSteps int64
	// CacheHits and CacheMisses are the engine's move-cache counters
	// summed over all workers (including overdrawn paths, so they vary
	// with worker timing).
	CacheHits, CacheMisses uint64
	// Elapsed is the wall-clock duration of the sampling phase.
	Elapsed time.Duration
	// Strategy and Method echo the configuration.
	Strategy string
	Method   stats.Method
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
	// drawn from the engine's pool per path: its move cache stays warm
	// across the worker's paths, and it becomes garbage with the run
	// instead of lingering in a pool of a finished engine.
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
// Carlo simulation.
func Analyze(rt *network.Runtime, cfg AnalysisConfig) (Report, error) {
	engine, err := NewEngine(rt, cfg.Config)
	if err != nil {
		return Report{}, err
	}
	method := cfg.Method
	if method == 0 {
		method = stats.MethodChernoff
	}
	var gen stats.Generator
	if cfg.RelErr > 0 {
		method = stats.MethodRelative
		gen, err = stats.NewRelative(cfg.Params.Delta, cfg.RelErr)
	} else {
		gen, err = stats.NewGenerator(method, cfg.Params)
	}
	if err != nil {
		return Report{}, err
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	states := newWorkerStates(engine, cfg, workers)
	tel := cfg.Telemetry

	sampler := func(worker, iteration int) (bool, error) {
		res, err := states[worker].samplePath(tel, worker, iteration)
		if err != nil {
			return false, err
		}
		return res.Satisfied, nil
	}

	var sum runTally
	popts := parallel.Options{Workers: cfg.Workers, OnSample: func(worker, _ int, _ bool) {
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
			Bound:    cfg.Property.Bound,
		})
		tel.Begin(gen.Planned())
		popts.OnSample = func(worker, iteration int, ok bool) {
			sum.add(states[worker].pop())
			tel.Commit(worker, iteration, ok)
		}
	}

	start := time.Now()
	est, err := parallel.Run(gen, sampler, popts)
	elapsed := time.Since(start)
	engineSteps, cacheHits, cacheMisses := engine.Stats()
	if tel != nil {
		tel.SetEngineStats(engineSteps, cacheHits, cacheMisses)
		tel.End(est, elapsed)
	}
	if err != nil {
		return Report{}, fmt.Errorf("sim: analysis failed: %w", err)
	}
	return Report{
		Estimate:    est,
		Probability: est.Mean(),
		Paths:       est.Trials,
		Deadlocks:   sum.deadlocks,
		Timelocks:   sum.timelocks,
		TotalSteps:  sum.steps,
		CacheHits:   cacheHits,
		CacheMisses: cacheMisses,
		Elapsed:     elapsed,
		Strategy:    cfg.Strategy.Name(),
		Method:      method,
	}, nil
}

// String renders the report in the tool's CLI output format.
func (r Report) String() string {
	return fmt.Sprintf("P ≈ %.6f  (paths=%d, strategy=%s, method=%s, deadlocks=%d, timelocks=%d, steps=%d, elapsed=%s)",
		r.Probability, r.Paths, r.Strategy, r.Method, r.Deadlocks, r.Timelocks, r.TotalSteps, r.Elapsed.Round(time.Millisecond))
}
