// Package slimsim is a statistical model checker for SLIM, the AADL
// dialect of the COMPASS toolset — a Go reproduction of "A Statistical
// Approach for Timed Reachability in AADL Models" (Bruintjes, Katoen,
// Lesens; DSN 2015).
//
// The library parses SLIM models (nominal components with modes, linear
// hybrid dynamics and event/data ports, plus error models woven in by
// fault injection), composes them into a network of stochastic timed
// automata, and estimates time-bounded reachability probabilities by Monte
// Carlo simulation under a selectable scheduling strategy (asap,
// progressive, local, maxtime). For the untimed Markovian fragment it also
// provides the numerical baseline flow the paper compares against:
// explicit state-space construction, bisimulation lumping, and
// uniformization.
//
// Quickstart:
//
//	m, err := slimsim.LoadModel(src)
//	rep, err := m.Analyze(slimsim.Options{
//		Goal:     "not thr1.powered and not thr2.powered",
//		Bound:    3600,
//		Strategy: "progressive",
//		Delta:    0.05,
//		Epsilon:  0.01,
//	})
//	fmt.Println(rep.Probability)
package slimsim

import (
	"errors"
	"fmt"
	"os"
	"time"

	"slimsim/internal/absint"
	"slimsim/internal/bisim"
	"slimsim/internal/ctmc"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/sim"
	"slimsim/internal/splitting"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
	"slimsim/internal/symmetry"
	"slimsim/internal/telemetry"
	"slimsim/internal/trace"
	"slimsim/internal/zone"
)

// Model is a loaded, instantiated and validated SLIM model, ready for
// analysis. It is immutable and safe for concurrent use: the embedded
// CompiledModel (see session.go) is the shareable compile artifact, and all
// mutable per-run state lives in Session values and per-worker scratch
// arenas inside the engine.
type Model struct {
	*CompiledModel
}

// LoadOption configures model loading.
type LoadOption func(*loadConfig)

type loadConfig struct {
	noPrune bool
}

// WithoutPruning disables the dropping of statically-dead transitions from
// move enumeration. Analyses are unaffected either way (pruning removes
// only transitions proven unable to fire); the option exists for
// differential testing of the pruning itself and for debugging.
func WithoutPruning() LoadOption {
	return func(c *loadConfig) { c.noPrune = true }
}

// LoadModel parses SLIM source text, instantiates it, and runs the
// abstract-interpretation reachability pass over the composed network.
// Transitions the pass proves unable to ever fire are dropped from move
// enumeration (disable with WithoutPruning).
func LoadModel(src string, opts ...LoadOption) (*Model, error) {
	cm, err := Compile(src, opts...)
	if err != nil {
		return nil, err
	}
	return &Model{CompiledModel: cm}, nil
}

// LoadModelFile reads and loads a SLIM model from a file.
func LoadModelFile(path string, opts ...LoadOption) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slimsim: %w", err)
	}
	m, err := LoadModel(string(data), opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ErrEngine classifies errors raised by the simulation engine after the
// model passed loading, lint and static validation: invariant violations at
// delay zero, flow or effect evaluation failures, and similar broken engine
// invariants. Test with errors.Is(err, ErrEngine); such an error means the
// engine (or the validation that admitted the model) is buggy, not that an
// estimate is merely noisy.
var ErrEngine = network.ErrInternal

// ExitCode maps an error from this package to the process exit code the
// CLIs use: 0 for nil, 2 for engine-internal failures (ErrEngine), 1 for
// everything else. Differential harnesses rely on the distinction to tell
// engine bugs from ordinary usage or model errors.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrEngine):
		return 2
	default:
		return 1
	}
}

// NumProcesses returns the number of STA processes in the composed
// network (component instances with modes, plus attached error models).
func (m *Model) NumProcesses() int { return len(m.built.Net.Processes) }

// NumVars returns the number of global variables (ports, data elements
// and synthetic state trackers).
func (m *Model) NumVars() int { return len(m.built.Net.Vars) }

// PropertyKind selects the temporal pattern of a property.
type PropertyKind string

// Property kinds (the COMPASS specification patterns supported).
const (
	// Reachability is P(<> [0,Bound] Goal) — probabilistic existence.
	Reachability PropertyKind = "reach"
	// Invariance is P([] [0,Bound] Goal) — probabilistic absence of
	// ¬Goal.
	Invariance PropertyKind = "always"
	// Until is P(Constraint U [0,Bound] Goal).
	Until PropertyKind = "until"
)

// Options configures an analysis run.
type Options struct {
	// Pattern, when non-empty, gives the whole property in the CSL-like
	// notation of the paper — e.g. "P(<> [0,3600] failure)",
	// "P([] [0,60] ok)" or "P(a U [0,5] b)" — and overrides Kind, Goal,
	// Constraint and Bound.
	Pattern string
	// Kind is the property pattern (default Reachability).
	Kind PropertyKind
	// Goal is the target predicate, written in SLIM expression syntax
	// over instance paths from the root (e.g. "mon.down",
	// "gps1.@err in modes (dead)"). Required.
	Goal string
	// Constraint is the left operand for Until.
	Constraint string
	// Bound is the time bound u of the property. Required.
	Bound float64
	// Strategy names the scheduling strategy: asap, progressive, local
	// or maxtime (default progressive).
	Strategy string
	// Delta and Epsilon are the accuracy knobs: with probability at
	// least 1−Delta the estimate is within Epsilon of the truth.
	// Defaults: 0.05 and 0.01.
	Delta, Epsilon float64
	// Method selects the sample-count generator: chernoff (default),
	// gauss or chow-robbins.
	Method string
	// RelErr, when positive (in (0,1)), switches sequential sampling to
	// the relative-error stopping rule: the run continues until the CLT
	// half-width is at most RelErr·p̂ — the meaningful accuracy target for
	// rare events, where any fixed absolute ε is either hopeless or
	// trivially met by p̂ = 0.
	RelErr float64
	// Levels selects the number of importance-splitting levels for
	// AnalyzeSplitting: 0 (default) derives them from the static
	// goal-distance map, 1 degenerates to plain Monte Carlo, L ≥ 2 spreads
	// L−1 thresholds over the level range. Ignored by Analyze.
	Levels int
	// Effort is the branches-per-stage budget of AnalyzeSplitting
	// (default 4096). Ignored by Analyze.
	Effort int
	// Workers is the number of parallel samplers (default 1).
	Workers int
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// OnLock selects deadlock/timelock handling: "violate" (default)
	// or "error".
	OnLock string
	// MaxSteps bounds steps per path (default 1e6).
	MaxSteps int
	// Telemetry, when non-nil, aggregates run metrics (sample counts,
	// histograms, the running estimate) and can render them as a JSON
	// run report or a progress line. Create one per run with
	// NewTelemetry. Nil telemetry adds no overhead to the sampling loop.
	Telemetry *Telemetry
}

// Telemetry is the run-metrics collector of the observability layer; see
// internal/telemetry for the full API (reports, progress, debug server).
type Telemetry = telemetry.Collector

// TelemetryInfo describes a run in telemetry reports.
type TelemetryInfo = telemetry.RunInfo

// NewTelemetry returns a collector for a single analysis run. The info
// fields the analysis itself knows (strategy, method, δ, ε, seed, workers,
// bound) are filled in by Analyze; callers typically set Tool and Model.
func NewTelemetry(info TelemetryInfo) *Telemetry {
	return telemetry.New(info)
}

// Report is the outcome of a statistical analysis; see sim.Report.
type Report = sim.Report

// SweepReport is the outcome of a shared-path multi-bound analysis; see
// sim.SweepReport.
type SweepReport = sim.SweepReport

// CellReport is one (property, bound) cell of a sweep; see sim.CellReport.
type CellReport = sim.CellReport

// SplittingReport is the outcome of an importance-splitting analysis; see
// splitting.Report.
type SplittingReport = splitting.Report

// withoutPattern returns opts with a Pattern parsed into Kind, Goal,
// Constraint and Bound, and Pattern cleared.
func (opts Options) withoutPattern() (Options, error) {
	if opts.Pattern == "" {
		return opts, nil
	}
	spec, err := prop.ParsePattern(opts.Pattern)
	if err != nil {
		return Options{}, err
	}
	opts.Pattern = ""
	opts.Bound = spec.Bound
	opts.Goal = spec.Goal
	opts.Constraint = spec.Constraint
	switch spec.Kind {
	case prop.Reachability:
		opts.Kind = Reachability
	case prop.Invariance:
		opts.Kind = Invariance
	case prop.Until:
		opts.Kind = Until
	}
	return opts, nil
}

// CompileProperty resolves the property described by opts against the
// model.
func (m *Model) CompileProperty(opts Options) (prop.Property, error) {
	opts, err := opts.withoutPattern()
	if err != nil {
		return prop.Property{}, err
	}
	if opts.Goal == "" {
		return prop.Property{}, fmt.Errorf("slimsim: no goal expression given")
	}
	goal, err := m.built.CompileExpr(opts.Goal)
	if err != nil {
		return prop.Property{}, err
	}
	kind := opts.Kind
	if kind == "" {
		kind = Reachability
	}
	switch kind {
	case Reachability:
		return prop.Reach(opts.Bound, goal), nil
	case Invariance:
		return prop.Always(opts.Bound, goal), nil
	case Until:
		if opts.Constraint == "" {
			return prop.Property{}, fmt.Errorf("slimsim: until property needs a constraint")
		}
		cons, err := m.built.CompileExpr(opts.Constraint)
		if err != nil {
			return prop.Property{}, err
		}
		return prop.UntilWithin(opts.Bound, cons, goal), nil
	default:
		return prop.Property{}, fmt.Errorf("slimsim: unknown property kind %q", kind)
	}
}

// ReachReport is the static verdict of the abstract-interpretation pass
// for one property, including the goal-distance level function; see
// internal/absint.
type ReachReport = absint.ReachReport

// StaticAnalysis exposes the abstract-interpretation fixpoint computed
// when the model was loaded: per-mode reachability and value ranges, dead
// transitions, the prune mask applied to move enumeration, and the
// guaranteed-abort findings.
func (m *Model) StaticAnalysis() *absint.Result { return m.analysis }

// CheckStatic attempts to decide the property exactly without sampling:
// the abstract interpreter's fixpoint settles goals that already hold in
// the initial state and goals no reachable valuation can satisfy. The
// report's Decided field says whether a 0/1 verdict was reached; either
// way its GoalDistance map is filled in (the level-function hook for
// importance splitting).
func (m *Model) CheckStatic(opts Options) (*ReachReport, error) {
	p, err := m.CompileProperty(opts)
	if err != nil {
		return nil, err
	}
	rep := m.analysis.Decide(p)
	return &rep, nil
}

// analysisConfig resolves the run knobs of opts — strategy, accuracy
// defaults, method, lock policy, seed — into a sim.AnalysisConfig
// carrying the compiled property p. Shared by Analyze and AnalyzeSweep so
// a sweep resolves its configuration exactly like a single-bound run.
func (m *Model) analysisConfig(opts Options, p prop.Property) (sim.AnalysisConfig, error) {
	stratName := opts.Strategy
	if stratName == "" {
		stratName = "progressive"
	}
	strat, err := strategy.ByName(stratName)
	if err != nil {
		return sim.AnalysisConfig{}, err
	}
	delta, eps := opts.Delta, opts.Epsilon
	if delta == 0 {
		delta = 0.05
	}
	if eps == 0 {
		eps = 0.01
	}
	methodName := opts.Method
	if methodName == "" {
		methodName = "chernoff"
	}
	method, err := stats.ParseMethod(methodName)
	if err != nil {
		return sim.AnalysisConfig{}, err
	}
	locks := sim.LockViolates
	switch opts.OnLock {
	case "", "violate":
	case "error":
		locks = sim.LockErrors
	default:
		return sim.AnalysisConfig{}, fmt.Errorf("slimsim: unknown lock policy %q (want violate or error)", opts.OnLock)
	}
	if opts.RelErr != 0 {
		if !(opts.RelErr > 0 && opts.RelErr < 1) {
			return sim.AnalysisConfig{}, fmt.Errorf("slimsim: relative error must lie in (0,1), got %g", opts.RelErr)
		}
		method = stats.MethodRelative
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return sim.AnalysisConfig{
		Config: sim.Config{
			Strategy: strat,
			Property: p,
			Locks:    locks,
			MaxSteps: opts.MaxSteps,
		},
		Params:    stats.Params{Delta: delta, Epsilon: eps, RelErr: opts.RelErr},
		Method:    method,
		Workers:   opts.Workers,
		Seed:      seed,
		Telemetry: opts.Telemetry,
	}, nil
}

// Analyze estimates the probability of the property via Monte Carlo
// simulation. It is shorthand for NewSession followed by Session.Run.
func (m *Model) Analyze(opts Options) (Report, error) {
	s, err := m.NewSession(opts)
	if err != nil {
		return Report{}, err
	}
	return s.Run()
}

// AnalyzeSweep estimates the probability of the property under every time
// bound in bounds (non-negative, not NaN, strictly ascending) from one
// shared path stream: each sampled path runs to the largest bound and its
// first-hit time decides the verdict of every cell at once, with one
// stopping rule per cell (see docs/SWEEPS.md). Options.Bound (or the
// pattern's bound) is overridden by the sweep horizon, and the report
// renders the property at the horizon. With identical configuration the
// last cell is bit-identical to Analyze at the horizon.
func (m *Model) AnalyzeSweep(opts Options, bounds []float64) (SweepReport, error) {
	if len(bounds) == 0 {
		return SweepReport{}, fmt.Errorf("slimsim: sweep needs at least one bound")
	}
	// Compile the property at the horizon so validation and the rendered
	// property text agree with what actually runs.
	opts, err := opts.withoutPattern()
	if err != nil {
		return SweepReport{}, err
	}
	opts.Bound = bounds[len(bounds)-1]
	s, err := m.NewSession(opts)
	if err != nil {
		return SweepReport{}, err
	}
	return sim.AnalyzeSweep(m.rt, s.cfg, bounds)
}

// AnalyzeSplitting estimates the probability of the property with
// fixed-effort importance splitting: the abstract interpreter's
// goal-distance map (CheckStatic) becomes the level function, paths are
// restarted from states recorded at level crossings, and the per-level
// conditional fractions compose into an unbiased product estimator — the
// rare-event regime (P ≤ 1e-6) plain Monte Carlo cannot reach. Levels and
// effort come from Options.Levels / Options.Effort (0 = automatic); with a
// single level the run degenerates to plain Monte Carlo and reproduces
// Analyze bit-for-bit for the same seed and workers. The estimate is a
// pure function of (model, property, seed), invariant under Workers.
func (m *Model) AnalyzeSplitting(opts Options) (SplittingReport, error) {
	p, err := m.CompileProperty(opts)
	if err != nil {
		return SplittingReport{}, err
	}
	cfg, err := m.analysisConfig(opts, p)
	if err != nil {
		return SplittingReport{}, err
	}
	if opts.Telemetry != nil {
		opts.Telemetry.SetRun(telemetry.RunInfo{Property: propertyText(opts)})
	}
	static := m.analysis.Decide(p)
	return splitting.Analyze(m.rt, splitting.Config{
		AnalysisConfig: cfg,
		Levels:         opts.Levels,
		Effort:         opts.Effort,
		Static:         &static,
	})
}

// propertyText renders the analyzed property in the pattern notation used
// by reports and logs.
func propertyText(opts Options) string {
	if opts.Pattern != "" {
		return opts.Pattern
	}
	switch opts.Kind {
	case Invariance:
		return fmt.Sprintf("P([] [0,%g] %s)", opts.Bound, opts.Goal)
	case Until:
		return fmt.Sprintf("P(%s U [0,%g] %s)", opts.Constraint, opts.Bound, opts.Goal)
	default:
		return fmt.Sprintf("P(<> [0,%g] %s)", opts.Bound, opts.Goal)
	}
}

// CTMCReport is the outcome of the numerical baseline pipeline.
type CTMCReport struct {
	// Probability is the exact (up to truncation error) time-bounded
	// reachability probability.
	Probability float64
	// States is the tangible state count of the built chain (quotient
	// states when Symmetry is non-nil, explicit states otherwise).
	States int
	// Explored counts all visited discrete states, including vanishing
	// ones.
	Explored int
	// LumpedStates is the quotient size after bisimulation
	// minimization.
	LumpedStates int
	// Symmetry describes the certified replica structure exploited by
	// the counter-abstraction fast path; nil when the chain was built
	// explicitly (no symmetry found, goal not invariant, or the path was
	// disabled with WithoutSymmetry).
	Symmetry *SymmetryInfo
	// BuildTime, LumpTime and SolveTime break down the pipeline cost.
	BuildTime, LumpTime, SolveTime time.Duration
}

// SymmetryInfo summarizes a certified symmetry reduction.
type SymmetryInfo struct {
	// Groups is the number of certified replica groups.
	Groups int
	// Replicas is the unit count of each group, largest first.
	Replicas []int
}

// CTMCOption configures CheckCTMC.
type CTMCOption func(*ctmcConfig)

type ctmcConfig struct {
	noSymmetry bool
}

// WithoutSymmetry disables the counter-abstraction fast path, forcing the
// explicit state-space construction even when a replica symmetry is
// certified. Results are identical either way (the quotient is exact);
// the option exists for differential testing and benchmarking.
func WithoutSymmetry() CTMCOption {
	return func(c *ctmcConfig) { c.noSymmetry = true }
}

// Untimed reports whether the model lies in the untimed fragment (no
// clock or continuous variables) that CheckCTMC handles exactly.
func (m *Model) Untimed() bool {
	for _, d := range m.built.Net.Vars {
		if d.Type.Timed() {
			return false
		}
	}
	return true
}

// CheckCTMC runs the paper's baseline flow on the untimed fragment:
// state space → bisimulation lumping → uniformization. It fails on models
// with clocks or continuous variables.
//
// When the model's replicas form certified symmetry groups (see
// internal/symmetry) and the goal is permutation-invariant, the chain is
// built as the counter abstraction directly — states are (shared state,
// replicas per local configuration) vectors with binomially scaled rates —
// never materializing the exponential concrete product. The reduction is
// exact: probabilities agree with the explicit flow to solver precision.
// The symmetry is detected once per compiled model and shared by all of
// its queries; goal invariance is checked per query. Disable with
// WithoutSymmetry.
func (m *Model) CheckCTMC(goalSrc string, bound float64, maxStates int, opts ...CTMCOption) (CTMCReport, error) {
	var cfg ctmcConfig
	for _, o := range opts {
		o(&cfg)
	}
	goal, err := m.built.CompileExpr(goalSrc)
	if err != nil {
		return CTMCReport{}, err
	}
	t0 := time.Now()
	var res *ctmc.BuildResult
	var sym *SymmetryInfo
	if !cfg.noSymmetry {
		if red := m.reduction(); red != nil && red.Invariant(goal) {
			res, err = symmetry.BuildQuotient(m.rt, red, goal, maxStates)
			if err != nil {
				return CTMCReport{}, err
			}
			sym = &SymmetryInfo{Groups: len(red.Groups), Replicas: red.Replicas()}
		}
	}
	if res == nil {
		res, err = ctmc.Build(m.rt, goal, maxStates)
		if err != nil {
			return CTMCReport{}, err
		}
	}
	buildTime := time.Since(t0)

	t1 := time.Now()
	lumped, err := bisim.Lump(res.Chain)
	if err != nil {
		return CTMCReport{}, err
	}
	lumpTime := time.Since(t1)

	t2 := time.Now()
	p, err := lumped.Quotient.ReachWithin(bound, 1e-10)
	if err != nil {
		return CTMCReport{}, err
	}
	solveTime := time.Since(t2)

	return CTMCReport{
		Probability:  p,
		States:       res.Chain.NumStates(),
		Explored:     res.Explored,
		LumpedStates: lumped.Blocks,
		Symmetry:     sym,
		BuildTime:    buildTime,
		LumpTime:     lumpTime,
		SolveTime:    solveTime,
	}, nil
}

// ZoneReport is the outcome of the exact single-clock timed analysis.
type ZoneReport struct {
	// Probability is the exact (up to uniformization truncation error)
	// time-bounded reachability probability.
	Probability float64
	// Dead is the probability mass absorbed in deadlocks or timelocks
	// before reaching the goal within the bound.
	Dead float64
	// Segments counts the deterministic time segments the analysis
	// unfolded.
	Segments int
	// PeakStates is the largest tangible state count of any segment.
	PeakStates int
	// SolveTime is the total analysis time.
	SolveTime time.Duration
}

// OverflowError reports that the explicit state-space construction hit the
// maxStates cap. It carries the exploration counters and a prefix of the
// state key at the frontier; test with errors.As. An overflow is an
// ordinary resource limit (exit code 1), not an engine failure.
type OverflowError = ctmc.OverflowError

// ErrZoneIneligible reports that a model falls outside the fragment the
// exact zone analysis handles (at most one clock, no continuous variables,
// clock resets only at deterministic boundaries, untimed goal). Test with
// errors.Is; such models still support Monte Carlo analysis.
var ErrZoneIneligible = zone.ErrIneligible

// CheckZone runs the exact transient analysis of the single-clock timed
// fragment: the model's zone graph is unfolded segment by segment and the
// piecewise-exponential delay distributions are integrated by
// uniformization. Unlike CheckCTMC it admits one clock with
// integer-bounded guards and invariants; models outside the fragment fail
// with ErrZoneIneligible.
func (m *Model) CheckZone(goalSrc string, bound float64, maxStates int) (ZoneReport, error) {
	goal, err := m.built.CompileExpr(goalSrc)
	if err != nil {
		return ZoneReport{}, err
	}
	t0 := time.Now()
	res, err := zone.Analyze(m.rt, goal, bound, maxStates)
	if err != nil {
		return ZoneReport{}, err
	}
	return ZoneReport{
		Probability: res.Probability,
		Dead:        res.Dead,
		Segments:    res.Segments,
		PeakStates:  res.PeakStates,
		SolveTime:   time.Since(t0),
	}, nil
}

// PathTrace is one recorded simulation path.
type PathTrace struct {
	// Satisfied is the path's Bernoulli outcome.
	Satisfied bool
	// Termination is why the path ended: decided, deadlock, timelock.
	Termination string
	// EndTime is the model time at which the path ended.
	EndTime float64
	// Events renders the path's timed and discrete steps in order.
	Events []string
}

// Simulate generates n paths under opts and returns their traces — the
// library counterpart of the tool's step-by-step simulation view. The
// strategy, seed, lock policy and step limit resolve as in Analyze.
func (m *Model) Simulate(opts Options, n int) ([]PathTrace, error) {
	if n < 1 {
		return nil, fmt.Errorf("slimsim: need at least one path, got %d", n)
	}
	rec := &trace.Recorder{MaxEvents: 10000}
	engine, src, err := m.traceEngine(opts, nil, rec)
	if err != nil {
		return nil, err
	}
	out := make([]PathTrace, 0, n)
	for i := 0; i < n; i++ {
		rec.Reset()
		res, err := engine.SamplePath(src)
		if err != nil {
			return nil, err
		}
		out = append(out, pathTrace(res, rec))
	}
	return out, nil
}

// traceEngine returns the engine of a trace mode, reporting to obs, and its
// random stream: the property and run knobs of opts resolve exactly as in
// Analyze, and a non-nil strat replaces the named strategy.
func (m *Model) traceEngine(opts Options, strat strategy.Strategy, obs sim.Observer) (*sim.Engine, *rng.Source, error) {
	p, err := m.CompileProperty(opts)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := m.analysisConfig(opts, p)
	if err != nil {
		return nil, nil, err
	}
	if strat != nil {
		cfg.Strategy = strat
	}
	cfg.Observer = obs
	engine, err := sim.NewEngine(m.rt, cfg.Config)
	if err != nil {
		return nil, nil, err
	}
	return engine, rng.New(cfg.Seed), nil
}

// pathTrace renders a sampled path and the events rec recorded for it.
func pathTrace(res sim.PathResult, rec *trace.Recorder) PathTrace {
	events := make([]string, len(rec.Events))
	for j, e := range rec.Events {
		events[j] = e.String()
	}
	return PathTrace{
		Satisfied:   res.Satisfied,
		Termination: res.Termination.String(),
		EndTime:     res.EndTime,
		Events:      events,
	}
}

// Decision is an interactive scheduling choice: wait Delay time units,
// then fire candidate Move (or -1 to let the engine pick uniformly among
// the moves enabled at that instant). Delay must be finite and within the
// invariant bound the prompt shows.
type Decision struct {
	Delay float64
	Move  int
}

// Prompt describes one interactive scheduling decision point.
type Prompt struct {
	// Now is the current model time.
	Now float64
	// MaxDelay is the largest delay the invariants allow (may be +Inf).
	MaxDelay float64
	// Moves lists the candidate discrete moves with their enabling
	// windows (as rendered interval sets, relative to Now).
	Moves []PromptMove
}

// PromptMove is one candidate move at a decision point.
type PromptMove struct {
	// Label describes the move.
	Label string
	// Window renders the delay set at which the move is enabled.
	Window string
}

// SimulateInteractive generates one path with the Input strategy: every
// time the model underspecifies what happens next, ask is consulted — the
// paper's interactive mode, CLI-style. Exponential (Markovian) transitions
// still race the chosen delays. When no guarded move can become enabled
// the path ends without a prompt, as under every other strategy.
func (m *Model) SimulateInteractive(opts Options, ask func(Prompt) (Decision, error)) (PathTrace, error) {
	if ask == nil {
		return PathTrace{}, fmt.Errorf("slimsim: SimulateInteractive needs a callback")
	}
	input := strategy.Input{Ask: func(ctx *strategy.Context) (float64, int, error) {
		pr := Prompt{Now: ctx.Now, MaxDelay: ctx.MaxDelay}
		for i, w := range ctx.Windows {
			pr.Moves = append(pr.Moves, PromptMove{Label: ctx.Labels.Label(i), Window: w.String()})
		}
		d, err := ask(pr)
		if err != nil {
			return 0, 0, err
		}
		return d.Delay, d.Move, nil
	}}
	rec := &trace.Recorder{MaxEvents: 10000}
	engine, src, err := m.traceEngine(opts, input, rec)
	if err != nil {
		return PathTrace{}, err
	}
	res, err := engine.SamplePath(src)
	if err != nil {
		return PathTrace{}, err
	}
	return pathTrace(res, rec), nil
}
