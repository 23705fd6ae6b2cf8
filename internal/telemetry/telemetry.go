// Package telemetry is the observability spine of the simulator: a
// Collector aggregates per-run metrics (sample counts, verdicts, rates,
// path-length and simulated-time histograms, per-transition firing counts,
// strategy decision counts, and the running estimate with its confidence
// interval) and renders them as a versioned JSON run report, a periodic
// progress line, or live expvar/pprof endpoints.
//
// The collector plugs into the engine at two points:
//
//   - Per-worker PathRecorders structurally implement sim.Observer and
//     accumulate the events of the path currently being generated by that
//     worker. Each recorder is owned by exactly one worker goroutine.
//   - Commit is called by the parallel round collector (via
//     parallel.MultiOptions.OnSample) for every sample the statistical
//     estimator actually consumes, in consumption order.
//
// The two-phase record/commit split is what makes reports deterministic:
// parallel workers overdraw — they may finish paths whose outcomes the
// generator never consumes before stopping — and those extra paths depend
// on goroutine timing. Folding a path into the aggregates only when its
// sample is consumed (a deterministic, worker-order interleaving; see
// package parallel) makes every metric a pure function of the seed, the
// worker count and the model.
package telemetry

import (
	"fmt"
	"sync"
	"time"

	"slimsim/internal/stats"
)

// RunInfo identifies a run in reports and progress output. Zero fields are
// treated as "unknown" and can be filled in later via SetRun.
type RunInfo struct {
	// Tool is the producing binary (slimsim, slimcheck, slimbench).
	Tool string
	// Model is the model file path or a symbolic model name.
	Model string
	// Property renders the checked property in pattern notation.
	Property string
	// Strategy and Method echo the analysis configuration.
	Strategy, Method string
	// Delta and Epsilon are the accuracy knobs of the run.
	Delta, Epsilon float64
	// Seed is the root random seed.
	Seed uint64
	// Workers is the number of sampling goroutines.
	Workers int
	// Bound is the property's time bound; it scales the simulated-time
	// histogram.
	Bound float64
}

// merge overlays non-zero fields of in onto r.
func (r *RunInfo) merge(in RunInfo) {
	if in.Tool != "" {
		r.Tool = in.Tool
	}
	if in.Model != "" {
		r.Model = in.Model
	}
	if in.Property != "" {
		r.Property = in.Property
	}
	if in.Strategy != "" {
		r.Strategy = in.Strategy
	}
	if in.Method != "" {
		r.Method = in.Method
	}
	if in.Delta != 0 {
		r.Delta = in.Delta
	}
	if in.Epsilon != 0 {
		r.Epsilon = in.Epsilon
	}
	if in.Seed != 0 {
		r.Seed = in.Seed
	}
	if in.Workers != 0 {
		r.Workers = in.Workers
	}
	if in.Bound != 0 {
		r.Bound = in.Bound
	}
}

// PathStats is the telemetry of one completed path, produced by a
// PathRecorder and held pending until the parallel collector consumes the
// path's outcome.
type PathStats struct {
	// Steps is the number of simulation steps (strategy decisions).
	Steps int
	// EndTime is the model time at which the path ended.
	EndTime float64
	// Termination is the sim.Termination name.
	Termination string
	// Satisfied is the path's Bernoulli outcome.
	Satisfied bool
	// Delays counts timed steps with a positive delay.
	Delays int
	// Moves counts discrete transitions fired.
	Moves int
	// Fires counts firings per transition label.
	Fires map[string]int64
}

// PathRecorder accumulates the events of the path a worker is currently
// generating. It implements sim.Observer structurally (OnDelay, OnMove,
// OnVerdict) and must only be used by the worker goroutine it was created
// for.
type PathRecorder struct {
	cur PathStats
}

// Begin resets the recorder for the next path.
func (r *PathRecorder) Begin() {
	r.cur = PathStats{}
}

// OnDelay implements the sim.Observer hook for timed steps.
func (r *PathRecorder) OnDelay(now, delay float64) {
	r.cur.Delays++
}

// OnMove implements the sim.Observer hook for discrete transitions.
func (r *PathRecorder) OnMove(now float64, label string) {
	r.cur.Moves++
	if r.cur.Fires == nil {
		r.cur.Fires = make(map[string]int64, 8)
	}
	r.cur.Fires[label]++
}

// OnVerdict implements the sim.Observer hook for the path end. The
// authoritative end time and termination come from Finish; the hook exists
// so a recorder satisfies the full Observer contract.
func (r *PathRecorder) OnVerdict(now float64, label string) {}

// Finish seals the current path with the engine's result fields and
// returns its stats. The recorder is left ready for Begin.
func (r *PathRecorder) Finish(steps int, endTime float64, termination string, satisfied bool) *PathStats {
	ps := r.cur
	ps.Steps = steps
	ps.EndTime = endTime
	ps.Termination = termination
	ps.Satisfied = satisfied
	r.cur = PathStats{}
	return &ps
}

// pathKey identifies a pending path by its producer.
type pathKey struct {
	worker, iteration int
}

// Collector aggregates the telemetry of one analysis run. All methods are
// safe for concurrent use; create one Collector per run.
type Collector struct {
	mu   sync.Mutex
	info RunInfo

	started  time.Time
	finished time.Time
	running  bool

	planned int

	recorders map[int]*PathRecorder
	pending   map[pathKey]*PathStats

	// Aggregates over consumed samples only.
	samples      int
	successes    int
	terminations map[string]int64
	totalSteps   int64
	totalDelays  int64
	totalMoves   int64
	sumEndTime   float64
	minSteps     int
	maxSteps     int
	minTime      float64
	maxTime      float64
	stepsHist    []int64 // log2 buckets: bucket i counts steps in [2^i, 2^(i+1))
	timeEdges    []float64
	timeHist     []int64
	transitions  map[string]int64

	// Engine-level counters set once after the sampling phase. They count
	// all engine work including overdrawn paths, so they belong to the
	// non-deterministic Timing section of the report, not to Sampling.
	engineSteps int64

	// Per-cell results of a multi-bound sweep, set once after the
	// sampling phase by the sweep driver.
	sweep *SweepMetrics

	// Per-stage results of an importance-splitting run, set once after
	// the sampling phase by the splitting driver.
	splitting *SplittingMetrics
}

// New returns a Collector for one run.
func New(info RunInfo) *Collector {
	return &Collector{
		info:         info,
		recorders:    make(map[int]*PathRecorder),
		pending:      make(map[pathKey]*PathStats),
		terminations: make(map[string]int64),
		transitions:  make(map[string]int64),
	}
}

// SetRun overlays non-zero fields of info onto the collector's run
// description; the analysis driver uses it to record the parts of the
// configuration the CLI does not know (resolved strategy, method, bound).
func (c *Collector) SetRun(info RunInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.info.merge(info)
}

// Begin marks the start of the sampling phase. planned is the a-priori
// sample count when the generator knows it (Chernoff–Hoeffding), or 0 for
// data-dependent stopping. Begin fixes the simulated-time histogram scale
// from the run's Bound, so SetRun must come first.
func (c *Collector) Begin(planned int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.planned = planned
	c.started = time.Now()
	c.running = true
	c.timeEdges = timeBucketEdges(c.info.Bound)
	c.timeHist = make([]int64, len(c.timeEdges)) // last bucket is overflow
}

// End marks the end of the sampling phase with the final estimator state.
func (c *Collector) End(est stats.Estimate, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finished = c.started.Add(elapsed)
	c.running = false
	// The consumed-sample aggregates and the generator must agree; prefer
	// the generator on mismatch (e.g. a run without RecordPath wiring).
	if c.samples != est.Trials {
		c.samples = est.Trials
		c.successes = est.Successes
	}
}

// SetEngineStats records the engine's raw work counter: total simulation
// steps, including overdrawn paths the generator never consumed. Like
// wall-clock time, it depends on goroutine timing under parallelism, so it
// surfaces in the Timing section of the report.
func (c *Collector) SetEngineStats(steps int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.engineSteps = steps
}

// SetSweep records the per-cell results table of a multi-bound run; it
// surfaces as the report's Sweep section next to Sampling.
func (c *Collector) SetSweep(sm *SweepMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweep = sm
}

// SetSplitting records the per-stage results of an importance-splitting
// run; it surfaces as the report's Splitting section next to Sampling.
func (c *Collector) SetSplitting(sm *SplittingMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.splitting = sm
}

// Recorder returns the per-worker path recorder, creating it on first use.
// The returned recorder must only be used by worker's goroutine.
func (c *Collector) Recorder(worker int) *PathRecorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recorders[worker]
	if !ok {
		rec = &PathRecorder{}
		c.recorders[worker] = rec
	}
	return rec
}

// RecordPath stores a finished path's stats until the parallel collector
// consumes (or discards) its outcome.
func (c *Collector) RecordPath(worker, iteration int, ps *PathStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending[pathKey{worker, iteration}] = ps
}

// Commit folds the pending path (worker, iteration) into the aggregates.
// It has the signature of parallel.Options.OnSample and is called, from
// the OnSample hook of the sampling or splitting collector, in
// consumption order, which makes the aggregates deterministic for a fixed
// seed and worker count.
func (c *Collector) Commit(worker, iteration int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples++
	if ok {
		c.successes++
	}
	key := pathKey{worker, iteration}
	ps, found := c.pending[key]
	if !found {
		return
	}
	delete(c.pending, key)

	c.terminations[ps.Termination]++
	c.totalSteps += int64(ps.Steps)
	c.totalDelays += int64(ps.Delays)
	c.totalMoves += int64(ps.Moves)
	c.sumEndTime += ps.EndTime
	if c.samples == 1 || ps.Steps < c.minSteps {
		c.minSteps = ps.Steps
	}
	if ps.Steps > c.maxSteps {
		c.maxSteps = ps.Steps
	}
	if c.samples == 1 || ps.EndTime < c.minTime {
		c.minTime = ps.EndTime
	}
	if ps.EndTime > c.maxTime {
		c.maxTime = ps.EndTime
	}
	b := log2Bucket(ps.Steps)
	for len(c.stepsHist) <= b {
		c.stepsHist = append(c.stepsHist, 0)
	}
	c.stepsHist[b]++
	if len(c.timeHist) > 0 {
		c.timeHist[timeBucket(c.timeEdges, ps.EndTime)]++
	}
	for label, n := range ps.Fires {
		c.transitions[label] += n
	}
}

// Snapshot is a point-in-time view of the run, consumed by the progress
// printer and the expvar endpoint.
type Snapshot struct {
	// Samples and Planned are the consumed and a-priori total sample
	// counts (Planned is 0 for sequential generators).
	Samples, Planned int
	// Successes counts satisfied paths among the consumed samples.
	Successes int
	// Estimate is the running p̂.
	Estimate float64
	// Lo and Hi bound the running CLT confidence interval at level
	// 1−Delta.
	Lo, Hi float64
	// Elapsed is the wall-clock time since Begin.
	Elapsed time.Duration
	// Rate is the consumption rate in samples per second.
	Rate float64
	// Running reports whether the sampling phase is still active.
	Running bool
}

// Snapshot returns the current run state.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Collector) snapshotLocked() Snapshot {
	est := stats.Estimate{Successes: c.successes, Trials: c.samples}
	delta := c.info.Delta
	if delta == 0 {
		delta = 0.05
	}
	lo, hi := stats.ConfidenceInterval(est, delta)
	s := Snapshot{
		Samples:   c.samples,
		Planned:   c.planned,
		Successes: c.successes,
		Estimate:  est.Mean(),
		Lo:        lo,
		Hi:        hi,
		Running:   c.running,
	}
	if !c.started.IsZero() {
		end := c.finished
		if c.running || end.IsZero() {
			end = time.Now()
		}
		s.Elapsed = end.Sub(c.started)
		if secs := s.Elapsed.Seconds(); secs > 0 {
			s.Rate = float64(c.samples) / secs
		}
	}
	return s
}

// log2Bucket maps a step count to its power-of-two histogram bucket.
func log2Bucket(steps int) int {
	if steps < 1 {
		return 0
	}
	b := 0
	for steps > 1 {
		steps >>= 1
		b++
	}
	return b
}

// timeBucketCount is the number of fixed-width simulated-time buckets over
// [0, Bound]; one overflow bucket is appended for end times past the bound
// (e.g. the horizon nudge that decides unbounded waits).
const timeBucketCount = 20

// timeBucketEdges returns the left edges of the simulated-time buckets,
// including the overflow bucket starting at bound. A non-positive bound
// yields a single catch-all bucket.
func timeBucketEdges(bound float64) []float64 {
	if bound <= 0 {
		return []float64{0}
	}
	edges := make([]float64, timeBucketCount+1)
	for i := 0; i <= timeBucketCount; i++ {
		edges[i] = bound * float64(i) / timeBucketCount
	}
	return edges
}

// timeBucket returns the bucket index for an end time.
func timeBucket(edges []float64, t float64) int {
	// Linear scan: len(edges) is small and commits are rare relative to
	// engine steps.
	for i := len(edges) - 1; i > 0; i-- {
		if t >= edges[i] {
			return i
		}
	}
	return 0
}

// String renders a compact human-readable summary (used in tests and
// debugging; the JSON report is the machine interface).
func (c *Collector) String() string {
	s := c.Snapshot()
	return fmt.Sprintf("telemetry: %d samples, p̂=%.4f [%.4f, %.4f]", s.Samples, s.Estimate, s.Lo, s.Hi)
}
