// Shared-path multi-bound analysis: one Monte Carlo path stream answers
// P(property within u) for every bound u of a sweep at once. The engine
// samples paths bounded at the sweep horizon (the largest u) and records
// the decision time of each verdict; prop.Sweep maps that to a per-bound
// outcome vector, and stats.MultiEstimator runs one stopping rule per
// cell off the shared stream until the slowest cell converges. The
// fan-out goes through parallel.RunMulti, so sweep estimates keep the
// commit-on-consume determinism guarantee of single-bound runs: a pure
// function of (model, property, seed, worker count).
package sim

import (
	"fmt"
	"time"

	"slimsim/internal/network"
	"slimsim/internal/parallel"
	"slimsim/internal/prop"
	"slimsim/internal/stats"
	"slimsim/internal/telemetry"
)

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
	// Cells holds the per-bound results in ascending bound order. With
	// identical configuration (seed, strategy, accuracy, workers) the
	// last cell is bit-identical to a single-bound Analyze run at the
	// sweep horizon.
	Cells []CellReport
	// Paths is the number of paths consumed by the shared stream — the
	// per-cell maximum, driven by the slowest-converging cell.
	Paths int
	// Deadlocks, Timelocks and TotalSteps count the consumed paths, as
	// in Report.
	Deadlocks, Timelocks int
	TotalSteps           int64
	// CacheHits and CacheMisses are the engine's move-cache counters
	// summed over all workers (including overdrawn paths).
	CacheHits, CacheMisses uint64
	// Elapsed is the wall-clock duration of the sampling phase.
	Elapsed time.Duration
	// Strategy and Method echo the configuration.
	Strategy string
	Method   stats.Method
}

// AnalyzeSweep estimates the probability of the configured property under
// every time bound in bounds (finite, non-negative, strictly ascending)
// from one shared path stream. cfg.Property.Bound is overridden by the
// sweep horizon; everything else configures the run exactly as Analyze.
func AnalyzeSweep(rt *network.Runtime, cfg AnalysisConfig, bounds []float64) (SweepReport, error) {
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

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

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
	popts := parallel.MultiOptions{Workers: cfg.Workers, OnSample: func(worker, _ int, _ []bool) {
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
	engineSteps, cacheHits, cacheMisses := engine.Stats()
	if tel != nil {
		tel.SetEngineStats(engineSteps, cacheHits, cacheMisses)
		tel.End(stream, elapsed)
	}
	if runErr != nil {
		return SweepReport{}, fmt.Errorf("sim: sweep analysis failed: %w", runErr)
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
	if tel != nil {
		sm := &telemetry.SweepMetrics{SharedPaths: me.Paths(), Cells: make([]telemetry.SweepCell, len(cells))}
		for i, c := range cells {
			lo, hi := stats.ConfidenceInterval(c.Estimate, cfg.Params.Delta)
			sm.Cells[i] = telemetry.SweepCell{
				Bound:     c.Bound,
				Samples:   c.Estimate.Trials,
				Successes: c.Estimate.Successes,
				Estimate:  c.Probability,
				ConfidenceInterval: &telemetry.CI{
					Level: 1 - cfg.Params.Delta,
					Lower: lo,
					Upper: hi,
				},
			}
		}
		tel.SetSweep(sm)
	}
	return SweepReport{
		Cells:       cells,
		Paths:       me.Paths(),
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
