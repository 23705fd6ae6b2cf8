// Package splitting implements multi-level importance splitting (the
// fixed-effort RESTART variant) on top of the Monte Carlo path engine: the
// rare-event workload the paper defers to its cited importance-sampling
// literature (§VI).
//
// Plain Monte Carlo needs on the order of 1/P paths to see a single
// satisfying path, which is hopeless below P ≈ 1e-4. Splitting factors the
// rare event into a chain of conditional events "reach importance level
// k+1 before deciding, given level k was reached": each stage spends a
// fixed effort of N branches started from the entry states recorded at the
// previous crossing, and the per-stage fractions compose into the unbiased
// product estimator
//
//	P̂ = Σ_k w_k · s_k/N,   w_0 = 1,  w_{k+1} = w_k · r_k/N,
//
// where r_k branches of stage k were promoted (crossed the next threshold)
// and s_k satisfied the property outright. Each conditional probability is
// moderate, so the total cost grows with log(1/P) stages instead of 1/P
// paths.
//
// The importance level comes for free from the abstract interpreter:
// absint.ReachReport.GoalDistance bounds, per process and location, the
// number of transitions still needed to make the goal satisfiable, and the
// level is the progress d0 − d from the initial distance d0. When the map
// is too shallow to build a ladder (d0 < 2 — typically because a guard's
// data dependency is invisible to the location-graph distance — or no
// static analysis is available) the level falls back to local progress:
// the per-process BFS distance from the initial location in the process's
// own transition graph, summed over processes. Either way the level
// depends only on the location vector, so it is evaluated allocation-free
// once per step.
//
// Determinism: branch b of stage k draws from the RNG stream
// seed→(k+1)→b, entry states are picked by the branch's own stream, and
// results are collected in branch-index order (parallel.RunFixed) — so the
// estimate is a pure function of (model, property, seed) and invariant
// even under the worker count. Entry states are cloned at level crossings
// into a free-list of pooled states; steady-state cloning allocates
// nothing.
package splitting

import (
	"fmt"
	"sync"
	"time"

	"slimsim/internal/absint"
	"slimsim/internal/network"
	"slimsim/internal/parallel"
	"slimsim/internal/rng"
	"slimsim/internal/sim"
	"slimsim/internal/sta"
	"slimsim/internal/stats"
	"slimsim/internal/telemetry"
)

// DefaultEffort is the per-stage branch count when Config.Effort is 0. It
// targets per-stage conditional probabilities down to a few percent with a
// relative error a difftest band can pin; callers chasing P ≤ 1e-6 at
// tight accuracy raise it.
const DefaultEffort = 4096

// maxAutoThresholds caps the automatically derived stage count so a deep
// fallback level function cannot explode the budget; thresholds are then
// picked evenly over the level range.
const maxAutoThresholds = 16

// Config configures a splitting analysis. The embedded sim.AnalysisConfig
// is interpreted exactly as by sim.Analyze; its statistical generator
// (Method, Params) only governs the degenerate single-level run.
type Config struct {
	sim.AnalysisConfig
	// Levels selects the number of splitting levels (stages): 0 derives
	// one stage per importance value automatically, 1 degenerates to a
	// plain Monte Carlo run (bit-identical to sim.Analyze for the same
	// seed and workers), and L ≥ 2 spreads L−1 thresholds evenly over the
	// level range.
	Levels int
	// Effort is the number of branches per stage (default DefaultEffort).
	Effort int
	// Static supplies the goal-distance level function; nil (or a map too
	// shallow to split on) falls back to the local-progress level.
	Static *absint.ReachReport
}

// StageReport describes one stage of the splitting run.
type StageReport struct {
	// Target is the importance threshold branches had to reach; -1 for
	// the final stage, whose branches only ever decide.
	Target int
	// Entries is the size of the stage's entry pool (0 for the first
	// stage, which starts from the initial state).
	Entries int
	// Branches, Promoted, Satisfied and Dead count the stage's branch
	// outcomes (Branches = Promoted + Satisfied + Dead).
	Branches, Promoted, Satisfied, Dead int
	// Weight is the product estimator weight w_k entering the stage.
	Weight float64
	// Contribution is the stage's term w_k · Satisfied/Branches.
	Contribution float64
}

// Report is the outcome of a splitting analysis.
type Report struct {
	// Probability is the product-estimator probability estimate.
	Probability float64
	// Stages holds the per-stage breakdown (nil for degenerate runs).
	Stages []StageReport
	// Branches is the total branch count over all stages.
	Branches int
	// Effort is the resolved per-stage branch count.
	Effort int
	// LevelSource names the level function: "goal-distance" or
	// "local-progress".
	LevelSource string
	// Degenerate reports that the run had a single level and delegated to
	// plain Monte Carlo; MC then holds the full simulation report and
	// Probability mirrors it bit-for-bit.
	Degenerate bool
	// MC is the plain Monte Carlo report of a degenerate run.
	MC *sim.Report
	// TotalSteps is the number of simulation steps over all branches.
	TotalSteps int64
	// Elapsed is the wall-clock duration of the sampling phase.
	Elapsed time.Duration
	// Strategy echoes the configuration.
	Strategy string
}

// statePool is a mutex-guarded free list of runtime states: entry states
// are cloned into pooled storage at level crossings and recycled when their
// stage retires, so steady-state cloning performs no allocations.
type statePool struct {
	mu   sync.Mutex
	rt   *network.Runtime
	free []*network.State
}

func (p *statePool) get() *network.State {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		st := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return st
	}
	p.mu.Unlock()
	st := p.rt.NewState()
	return &st
}

func (p *statePool) put(st *network.State) {
	if st == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, st)
	p.mu.Unlock()
}

// minGoalDistance is the shallowest initial goal distance worth splitting
// on: d0 == 1 means the abstraction sees the goal a single transition away
// (typically because the guard's data dependency — an injected variable, a
// connected port — is invisible to the location-graph distance), so the
// ladder would have one rung and the run would degenerate to plain
// sampling. The local-progress level takes over in that regime.
const minGoalDistance = 2

// deriveLevel builds the importance level function and returns the largest
// meaningful threshold. The goal-distance form measures progress through
// the mode graph toward states where the target predicate can hold; the
// fallback scores each process by the BFS distance of its current location
// from its initial one in the process's own transition graph and sums over
// processes — deep failure chains then contribute one level per chain step
// even when the goal predicate itself is opaque to the abstraction.
func deriveLevel(rt *network.Runtime, static *absint.ReachReport, init []sta.LocID) (level sim.LevelFunc, maxLevel int, source string) {
	if static != nil && static.GoalDistance != nil {
		if d0 := static.Distance(init); d0 >= minGoalDistance {
			return func(locs []sta.LocID) int {
				d := static.Distance(locs)
				if d < 0 {
					// The goal became unreachable: this branch can
					// never be promoted again.
					return -1
				}
				return d0 - d
			}, d0, "goal-distance"
		}
	}
	dist, maxLevel := localProgress(rt, init)
	return func(locs []sta.LocID) int {
		n := 0
		for i, l := range locs {
			if i < len(dist) && int(l) < len(dist[i]) {
				n += dist[i][l]
			}
		}
		return n
	}, maxLevel, "local-progress"
}

// localProgress computes, per process, the BFS distance of every location
// from the process's initial location over the process's transition graph;
// statically unreachable locations score 0. The second result is the sum
// of the per-process maxima — the largest level any state can attain.
func localProgress(rt *network.Runtime, init []sta.LocID) ([][]int, int) {
	procs := rt.Net().Processes
	dist := make([][]int, len(procs))
	total := 0
	for pi, p := range procs {
		d := make([]int, len(p.Locations))
		for i := range d {
			d[i] = -1
		}
		start := p.Initial
		if pi < len(init) {
			start = init[pi]
		}
		queue := []sta.LocID{start}
		d[start] = 0
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, tr := range p.Transitions {
				if tr.From == cur && d[tr.To] < 0 {
					d[tr.To] = d[cur] + 1
					queue = append(queue, tr.To)
				}
			}
		}
		max := 0
		for i, v := range d {
			if v < 0 {
				d[i] = 0
			} else if v > max {
				max = v
			}
		}
		dist[pi] = d
		total += max
	}
	return dist, total
}

// thresholds picks the stage thresholds: want−1 values spread evenly over
// 1..maxLevel (want == 0 derives one per level, capped). The returned
// slice is strictly ascending and ends at maxLevel.
func thresholds(maxLevel, want int) []int {
	if maxLevel < 1 {
		return nil
	}
	m := maxLevel
	if want > 0 {
		m = want - 1
	}
	if m > maxLevel {
		m = maxLevel
	}
	if want == 0 && m > maxAutoThresholds {
		m = maxAutoThresholds
	}
	if m < 1 {
		return nil
	}
	out := make([]int, 0, m)
	prev := 0
	for i := 1; i <= m; i++ {
		// Even spread with the last threshold pinned to maxLevel.
		t := (i*maxLevel + m - 1) / m
		if t <= prev {
			continue
		}
		out = append(out, t)
		prev = t
	}
	return out
}

// branchSample is one collected branch outcome.
type branchSample struct {
	satisfied bool
	state     *network.State // promoted crossing state, nil otherwise
}

// Analyze runs the fixed-effort splitting estimator for the configured
// property. With a single level (Config.Levels == 1, or no usable
// thresholds) it delegates to sim.Analyze, reproducing the plain Monte
// Carlo estimate bit-for-bit for the same (model, property, seed, workers).
func Analyze(rt *network.Runtime, cfg Config) (Report, error) {
	if cfg.Levels < 0 {
		return Report{}, fmt.Errorf("splitting: levels must be nonnegative, got %d", cfg.Levels)
	}
	if cfg.Effort < 0 {
		return Report{}, fmt.Errorf("splitting: effort must be nonnegative, got %d", cfg.Effort)
	}
	init := rt.NewState()
	if err := rt.NewScratch().InitialStateInto(&init); err != nil {
		return Report{}, err
	}
	level, maxLevel, source := deriveLevel(rt, cfg.Static, init.Locs)
	ts := thresholds(maxLevel, cfg.Levels)
	if cfg.Levels == 1 || len(ts) == 0 {
		mc, err := sim.Analyze(rt, cfg.AnalysisConfig)
		if err != nil {
			return Report{}, err
		}
		return Report{
			Probability: mc.Probability,
			Branches:    mc.Paths,
			LevelSource: source,
			Degenerate:  true,
			MC:          &mc,
			TotalSteps:  mc.TotalSteps,
			Elapsed:     mc.Elapsed,
			Strategy:    mc.Strategy,
		}, nil
	}

	engine, err := sim.NewEngine(rt, cfg.Config)
	if err != nil {
		return Report{}, err
	}
	effort := cfg.Effort
	if effort == 0 {
		effort = DefaultEffort
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	stages := len(ts) + 1
	pool := &statePool{rt: rt}
	root := rng.New(cfg.Seed)
	tel := cfg.Telemetry
	if tel != nil {
		tel.SetRun(telemetry.RunInfo{
			Strategy: cfg.Strategy.Name(),
			Method:   "splitting",
			Delta:    cfg.Params.Delta,
			Epsilon:  cfg.Params.Epsilon,
			Seed:     cfg.Seed,
			Workers:  workers,
			Bound:    cfg.Property.Bound,
		})
		tel.Begin(stages * effort)
	}

	rep := Report{
		Stages:      make([]StageReport, 0, stages),
		Effort:      effort,
		LevelSource: source,
		Strategy:    cfg.Strategy.Name(),
	}
	var (
		entries  []*network.State
		weight   = 1.0
		rawEst   stats.Estimate
		counter  = 0 // global branch index, for telemetry identity
		estimate = 0.0
	)
	start := time.Now()
	for k := 0; k < stages; k++ {
		target := sim.NoPromotion
		reported := -1
		if k < len(ts) {
			target = ts[k]
			reported = ts[k]
		}
		stageRoot := root.Split(uint64(k + 1))
		outcomes := make([]branchSample, effort)
		stageEntries := entries

		sample := func(i int) (branchSample, error) {
			// The branch's stream is a pure function of (seed, stage,
			// index): results do not depend on which worker ran it.
			src := stageRoot.Split(uint64(i))
			var entry *network.State
			if len(stageEntries) > 0 {
				// Resampling with replacement from the entry pool,
				// by the branch's own first draw.
				entry = stageEntries[src.IntN(len(stageEntries))]
			}
			dest := pool.get()
			res, promoted, err := engine.SampleBranch(src, entry, target, level, dest)
			if err != nil {
				pool.put(dest)
				return branchSample{}, err
			}
			bs := branchSample{satisfied: res.Satisfied}
			if promoted {
				bs.state = dest
			} else {
				pool.put(dest)
			}
			outcomes[i] = bs
			return bs, nil
		}

		base := counter
		popts := parallel.FixedOptions{Workers: cfg.Workers}
		if tel != nil {
			popts.OnResult = func(i int) {
				// Safe: outcomes[i] was written by the producing worker
				// before the channel send the collector received.
				tel.Commit(0, base+i, outcomes[i].satisfied)
			}
		}
		results, runErr := parallel.RunFixed(effort, sample, popts)
		if runErr != nil {
			// Release whatever crossed before the failure.
			for _, r := range results {
				pool.put(r.state)
			}
			return Report{}, fmt.Errorf("splitting: stage %d failed: %w", k, runErr)
		}
		counter += effort

		st := StageReport{Target: reported, Entries: len(stageEntries), Branches: effort, Weight: weight}
		next := make([]*network.State, 0, effort/4)
		for _, r := range results {
			switch {
			case r.state != nil:
				st.Promoted++
				next = append(next, r.state)
			case r.satisfied:
				st.Satisfied++
				rawEst.Successes++
			default:
				st.Dead++
			}
			rawEst.Trials++
		}
		st.Contribution = weight * float64(st.Satisfied) / float64(effort)
		estimate += st.Contribution
		rep.Stages = append(rep.Stages, st)
		rep.Branches += effort

		// Retire the previous entry pool before adopting the new one.
		for _, e := range entries {
			pool.put(e)
		}
		entries = next
		weight *= float64(st.Promoted) / float64(effort)
		if st.Promoted == 0 {
			// No branch crossed: every remaining stage would contribute
			// 0 with weight 0 — the estimator is already final.
			break
		}
	}
	for _, e := range entries {
		pool.put(e)
	}
	rep.Elapsed = time.Since(start)
	rep.Probability = estimate
	rep.TotalSteps, _, _ = engine.Stats()
	if tel != nil {
		tel.SetEngineStats(rep.TotalSteps)
		tel.End(rawEst, rep.Elapsed)
		tel.SetSplitting(rep.Metrics())
	}
	return rep, nil
}

// Metrics renders the report as the telemetry section of schema v1.
func (r *Report) Metrics() *telemetry.SplittingMetrics {
	sm := &telemetry.SplittingMetrics{
		Levels:        len(r.Stages),
		Effort:        r.Effort,
		Branches:      r.Branches,
		Estimate:      r.Probability,
		LevelFunction: r.LevelSource,
		Stages:        make([]telemetry.SplittingStage, len(r.Stages)),
	}
	if r.Degenerate {
		sm.Levels = 1
	}
	for i, st := range r.Stages {
		sm.Stages[i] = telemetry.SplittingStage{
			Target:       st.Target,
			Entries:      st.Entries,
			Branches:     st.Branches,
			Promoted:     st.Promoted,
			Satisfied:    st.Satisfied,
			Dead:         st.Dead,
			Weight:       st.Weight,
			Contribution: st.Contribution,
		}
	}
	return sm
}

// String renders the report in the tool's CLI output format.
func (r Report) String() string {
	if r.Degenerate && r.MC != nil {
		return r.MC.String() + "  [splitting: single level, plain Monte Carlo]"
	}
	return fmt.Sprintf("P ≈ %.3e  (splitting: levels=%d, effort=%d, branches=%d, level=%s, strategy=%s, steps=%d, elapsed=%s)",
		r.Probability, len(r.Stages), r.Effort, r.Branches, r.LevelSource, r.Strategy,
		r.TotalSteps, r.Elapsed.Round(time.Millisecond))
}
