// Run report rendering: a versioned JSON document capturing the model,
// property, configuration and metrics of one run. The schema is documented
// in docs/OBSERVABILITY.md; bump SchemaVersion on any incompatible change.
package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// SchemaVersion is the report format version written by this package.
const SchemaVersion = 1

// Report is the top-level run report. Exactly one of the primary payload
// sections (Sampling, CTMC, Experiment) is set per report, depending on
// the producing flow; multi-bound runs additionally set Sweep next to
// Sampling (the Sampling section then describes the shared path stream at
// the sweep horizon, and Sweep the per-bound cells).
type Report struct {
	// SchemaVersion identifies the report format.
	SchemaVersion int `json:"schemaVersion"`
	// Tool is the producing binary.
	Tool string `json:"tool"`
	// Model and Property identify the analyzed input.
	Model    string `json:"model,omitempty"`
	Property string `json:"property,omitempty"`
	// Strategy, Method, Delta, Epsilon, Seed and Workers echo the run
	// configuration.
	Strategy string  `json:"strategy,omitempty"`
	Method   string  `json:"method,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	// Timing holds the wall-clock figures. They are the only
	// non-deterministic part of a report; golden tests compare the
	// sections below instead.
	Timing *Timing `json:"timing,omitempty"`
	// Sampling holds the Monte Carlo metrics (slimsim flow). For sweep
	// runs it describes the shared path stream, whose outcomes are the
	// verdicts at the sweep horizon (the largest bound).
	Sampling *SamplingMetrics `json:"sampling,omitempty"`
	// Sweep holds the per-cell results of a multi-bound run
	// (slimsim -bounds flow); it accompanies Sampling.
	Sweep *SweepMetrics `json:"sweep,omitempty"`
	// Splitting holds the per-stage results of an importance-splitting
	// run (slimsim -splitting flow); it accompanies Sampling, whose
	// section then describes the raw branch outcomes (the splitting
	// estimate lives here, not in sampling.estimate).
	Splitting *SplittingMetrics `json:"splitting,omitempty"`
	// CTMC holds the numerical-baseline metrics (slimcheck flow).
	CTMC *CTMCMetrics `json:"ctmc,omitempty"`
	// Experiment holds benchmark sweep rows (slimbench flow).
	Experiment *Experiment `json:"experiment,omitempty"`
}

// Timing is the wall-clock section of a report. It also carries the raw
// engine throughput counters, which — unlike the Sampling section — include
// overdrawn paths and therefore depend on goroutine timing.
type Timing struct {
	// WallClockMS is the duration of the measured phase in milliseconds.
	WallClockMS float64 `json:"wallClockMs"`
	// SamplesPerSec is the sample consumption rate (sampling runs only).
	SamplesPerSec float64 `json:"samplesPerSec,omitempty"`
	// StepsPerSec is the engine step throughput over the sampling phase,
	// counting all simulated paths (consumed or overdrawn).
	StepsPerSec float64 `json:"stepsPerSec,omitempty"`
}

// CI is a two-sided confidence interval.
type CI struct {
	// Level is the confidence level 1−δ.
	Level float64 `json:"level"`
	// Lower and Upper bound the interval, clamped to [0, 1].
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// Decisions breaks down the strategy decisions taken over all consumed
// paths: one Choose call per simulation step.
type Decisions struct {
	// Total is the number of strategy decisions (= total steps).
	Total int64 `json:"total"`
	// Fired counts decisions that ended in a discrete transition.
	Fired int64 `json:"fired"`
	// DelayOnly counts decisions that only advanced time.
	DelayOnly int64 `json:"delayOnly"`
	// TimedSteps counts steps with a positive delay.
	TimedSteps int64 `json:"timedSteps"`
}

// Bucket is one histogram bin over [Lo, Hi); the last bucket of a
// histogram is unbounded above.
type Bucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi,omitempty"`
	Count int64   `json:"count"`
}

// Distribution summarizes a per-path quantity.
type Distribution struct {
	Min       float64  `json:"min"`
	Max       float64  `json:"max"`
	Mean      float64  `json:"mean"`
	Histogram []Bucket `json:"histogram"`
}

// SamplingMetrics is the deterministic metrics section of a Monte Carlo
// run: for a fixed seed, worker count and model it is byte-identical
// across runs.
type SamplingMetrics struct {
	// Samples is the number of consumed path outcomes; PlannedSamples is
	// the a-priori bound when known (0 for sequential generators).
	Samples        int `json:"samples"`
	PlannedSamples int `json:"plannedSamples,omitempty"`
	// Successes counts satisfied paths; Estimate is p̂.
	Successes int     `json:"successes"`
	Estimate  float64 `json:"estimate"`
	// ConfidenceInterval is the CLT interval around Estimate at level
	// 1−δ.
	ConfidenceInterval *CI `json:"confidenceInterval,omitempty"`
	// Terminations counts paths per termination reason.
	Terminations map[string]int64 `json:"terminations"`
	// TotalSteps is the number of simulation steps over all paths.
	TotalSteps int64 `json:"totalSteps"`
	// Decisions breaks down the strategy decisions.
	Decisions Decisions `json:"decisions"`
	// PathSteps and PathTime are the per-path step-count and end-time
	// distributions.
	PathSteps Distribution `json:"pathSteps"`
	PathTime  Distribution `json:"pathTime"`
	// Transitions counts firings per transition label.
	Transitions map[string]int64 `json:"transitions"`
}

// SweepMetrics is the per-cell results table of a shared-path multi-bound
// run: one SweepCell per (property, bound) cell, in ascending bound
// order. Like SamplingMetrics it is deterministic for a fixed seed,
// worker count and model.
type SweepMetrics struct {
	// SharedPaths is the number of paths consumed by the shared stream —
	// sampling continues until the slowest cell converges, so this equals
	// the largest per-cell sample count.
	SharedPaths int `json:"sharedPaths"`
	// Cells holds the per-bound estimates. Each cell freezes at its own
	// sequential stopping time, so Samples may differ across cells.
	Cells []SweepCell `json:"cells"`
}

// SweepCell is one (property, bound) cell of a sweep.
type SweepCell struct {
	// Bound is the cell's time bound u.
	Bound float64 `json:"bound"`
	// Samples and Successes are the outcomes the cell consumed before its
	// stopping rule fired.
	Samples   int `json:"samples"`
	Successes int `json:"successes"`
	// Estimate is the cell's p̂.
	Estimate float64 `json:"estimate"`
	// ConfidenceInterval is the CLT interval around Estimate at level
	// 1−δ.
	ConfidenceInterval *CI `json:"confidenceInterval,omitempty"`
}

// SplittingMetrics is the per-stage results table of an importance-
// splitting run. Like SamplingMetrics it is deterministic for a fixed seed
// and model — and, unlike plain sampling, even invariant under the worker
// count (branch randomness is keyed on the global branch index).
type SplittingMetrics struct {
	// Levels is the number of splitting stages actually run.
	Levels int `json:"levels"`
	// Effort is the number of branches per stage.
	Effort int `json:"effort"`
	// Branches is the total branch count over all stages.
	Branches int `json:"branches"`
	// Estimate is the unbiased product-estimator probability — the run's
	// answer (the accompanying sampling.estimate is the raw fraction of
	// satisfied branches, which overstates the probability).
	Estimate float64 `json:"estimate"`
	// LevelFunction names the level derivation: "goal-distance" (absint
	// map) or "displaced-processes" (fallback).
	LevelFunction string `json:"levelFunction"`
	// Stages holds the per-stage breakdown in execution order.
	Stages []SplittingStage `json:"stages"`
}

// SplittingStage is one stage of a splitting run.
type SplittingStage struct {
	// Target is the importance threshold of the stage; -1 marks the final
	// stage, whose branches run to a verdict.
	Target int `json:"target"`
	// Entries is the entry-pool size (0 for the first stage).
	Entries int `json:"entries"`
	// Branches, Promoted, Satisfied and Dead count the branch outcomes.
	Branches  int `json:"branches"`
	Promoted  int `json:"promoted"`
	Satisfied int `json:"satisfied"`
	Dead      int `json:"dead"`
	// Weight is the product-estimator weight entering the stage;
	// Contribution is the stage's term weight·satisfied/branches.
	Weight       float64 `json:"weight"`
	Contribution float64 `json:"contribution"`
}

// CTMCMetrics is the numerical-baseline section (slimcheck flow).
type CTMCMetrics struct {
	Probability  float64 `json:"probability"`
	States       int     `json:"states"`
	Explored     int     `json:"explored"`
	LumpedStates int     `json:"lumpedStates"`
	BuildMS      float64 `json:"buildMs"`
	LumpMS       float64 `json:"lumpMs"`
	SolveMS      float64 `json:"solveMs"`
	// SymmetryGroups and SymmetryReplicas describe the certified
	// counter-abstraction reduction when one was applied (slimcheck
	// symmetry fast path); both absent for explicit builds.
	SymmetryGroups   int   `json:"symmetryGroups,omitempty"`
	SymmetryReplicas []int `json:"symmetryReplicas,omitempty"`
}

// Experiment is a benchmark sweep: one row per sub-run.
type Experiment struct {
	// Name is the experiment identifier (table1, fig5-permanent, ...).
	Name string `json:"name"`
	// Rows holds the sweep results in execution order.
	Rows []ExperimentRow `json:"rows"`
}

// ExperimentRow is one sub-run of an experiment.
type ExperimentRow struct {
	// Label identifies the sub-run (e.g. "size=4", "u=600/strategy=asap").
	Label string `json:"label"`
	// Values holds the row's measurements, keyed by metric name.
	Values map[string]float64 `json:"values"`
}

// Report renders the collector's aggregates as a run report.
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()

	snap := c.snapshotLocked()
	delta := c.info.Delta
	if delta == 0 {
		delta = 0.05
	}
	m := &SamplingMetrics{
		Samples:        c.samples,
		PlannedSamples: c.planned,
		Successes:      c.successes,
		Estimate:       snap.Estimate,
		ConfidenceInterval: &CI{
			Level: 1 - delta,
			Lower: snap.Lo,
			Upper: snap.Hi,
		},
		Terminations: copyCounts(c.terminations),
		TotalSteps:   c.totalSteps,
		Decisions: Decisions{
			Total:      c.totalSteps,
			Fired:      c.totalMoves,
			DelayOnly:  c.totalSteps - c.totalMoves,
			TimedSteps: c.totalDelays,
		},
		PathSteps:   stepsDistribution(c.stepsHist, c.minSteps, c.maxSteps, c.totalSteps, c.samples),
		PathTime:    timeDistribution(c.timeEdges, c.timeHist, c.minTime, c.maxTime, c.sumEndTime, c.samples),
		Transitions: copyCounts(c.transitions),
	}

	rep := Report{
		SchemaVersion: SchemaVersion,
		Tool:          c.info.Tool,
		Model:         c.info.Model,
		Property:      c.info.Property,
		Strategy:      c.info.Strategy,
		Method:        c.info.Method,
		Delta:         c.info.Delta,
		Epsilon:       c.info.Epsilon,
		Seed:          c.info.Seed,
		Workers:       c.info.Workers,
		Sampling:      m,
		Sweep:         c.sweep,
		Splitting:     c.splitting,
	}
	if !c.started.IsZero() {
		t := &Timing{
			WallClockMS:   float64(snap.Elapsed) / float64(time.Millisecond),
			SamplesPerSec: snap.Rate,
		}
		if secs := snap.Elapsed.Seconds(); secs > 0 && c.engineSteps > 0 {
			t.StepsPerSec = float64(c.engineSteps) / secs
		}
		rep.Timing = t
	}
	return rep
}

// WriteFile marshals the report as indented JSON to path.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: write report: %w", err)
	}
	return nil
}

func copyCounts(in map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// stepsDistribution renders the log2 step-count histogram.
func stepsDistribution(hist []int64, min, max int, total int64, samples int) Distribution {
	d := Distribution{Min: float64(min), Max: float64(max)}
	if samples > 0 {
		d.Mean = float64(total) / float64(samples)
	}
	d.Histogram = make([]Bucket, 0, len(hist))
	for i, n := range hist {
		if n == 0 {
			continue
		}
		lo := float64(int64(1) << i)
		if i == 0 {
			lo = 0
		}
		d.Histogram = append(d.Histogram, Bucket{Lo: lo, Hi: float64(int64(1) << (i + 1)), Count: n})
	}
	return d
}

// timeDistribution renders the fixed-width simulated-time histogram.
func timeDistribution(edges []float64, hist []int64, min, max, sum float64, samples int) Distribution {
	d := Distribution{Min: min, Max: max}
	if samples > 0 {
		d.Mean = sum / float64(samples)
	}
	d.Histogram = make([]Bucket, 0, len(hist))
	for i, n := range hist {
		if n == 0 {
			continue
		}
		b := Bucket{Lo: edges[i], Count: n}
		if i+1 < len(edges) {
			b.Hi = edges[i+1]
		}
		d.Histogram = append(d.Histogram, b)
	}
	return d
}
