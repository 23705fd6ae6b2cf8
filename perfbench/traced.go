package main

// The traced run rebuilds each analysis flow from the program's public
// parts and records a span around every call into a layer. The rebuilt
// flows mirror slimsim.Compile, Model.Analyze, Model.AnalyzeSweep and
// Model.CheckCTMC call for call, so their answers must equal the facade's
// bit for bit; the traced run checks that.

import (
	"fmt"
	"math"
	"runtime"

	"slimsim/internal/absint"
	"slimsim/internal/bisim"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/lint"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/parallel"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/sim"
	"slimsim/internal/slim"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
	"slimsim/internal/symmetry"
)

// maxStates caps every exact state-space construction.
const maxStates = 1 << 21

// answer is what a query returns: one estimator state per cell for Monte
// Carlo queries (nil for exact ones) and one probability per cell.
type answer struct {
	est []stats.Estimate
	p   []float64
}

// same reports whether two answers are bit-identical.
func (a answer) same(b answer) bool {
	if len(a.est) != len(b.est) || len(a.p) != len(b.p) {
		return false
	}
	for i := range a.est {
		if a.est[i] != b.est[i] {
			return false
		}
	}
	for i := range a.p {
		if math.Float64bits(a.p[i]) != math.Float64bits(b.p[i]) {
			return false
		}
	}
	return true
}

func (a answer) String() string { return fmt.Sprint(a.p) }

// counts are the work counters of one pass of the traced run. The
// workers=1 pass over a fixed query set yields the counters that cannot
// depend on timing; the timed pass yields the rest.
type counts struct {
	mcRuns         int
	pathsSampled   int64
	pathsConsumed  int64
	steps          int64
	hits, misses   uint64
	mallocs        uint64
	overdrawRatios []float64

	exactRuns        int
	explored, states int64
	blocks           int64
	explicitBuilds   int
	explicitAlloc    uint64
}

// artifact is a model compiled from its parts: the counterpart of
// slimsim.CompiledModel.
type artifact struct {
	built *model.Built
	rt    *network.Runtime
}

// tctx carries the tracer and counters through the rebuilt flows. query
// and parent place the spans of the current query; det marks the workers=1
// pass, which records no per-path spans so that its allocation counts do
// not include the tracer's own.
type tctx struct {
	tr     *tracer
	c      *counts
	query  int
	parent int
	det    bool
}

// span records fn as a child of the current parent on the driving lane.
func (t *tctx) span(name string, fn func() error) error {
	id := t.tr.begin(name, t.parent, t.query, 0)
	err := fn()
	t.tr.end(id)
	return err
}

// compile rebuilds slimsim.Compile, plus the lint gate the daemon runs
// first: parse, lint, instantiate, network construction, abstract
// interpretation and dead-transition pruning.
func (t *tctx) compile(src string) (*artifact, error) {
	var (
		parsed *slim.Model
		built  *model.Built
		rt     *network.Runtime
		res    *absint.Result
		err    error
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"slim.parse", func() error { parsed, err = slim.Parse(src); return err }},
		{"lint.run", func() error {
			if diags := lint.RunSource(src); lint.HasErrors(diags) {
				return fmt.Errorf("model has lint errors: %s", lint.Errors(diags)[0].Render("model"))
			}
			return nil
		}},
		{"model.instantiate", func() error { built, err = model.Instantiate(parsed); return err }},
		{"network.new", func() error { rt, err = network.New(built.Net); return err }},
		{"absint.analyze", func() error { res = absint.Analyze(rt); return nil }},
		{"network.prune", func() error {
			if mask, any := res.PruneMask(); any {
				return rt.Prune(mask)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if t.tr == nil {
			err = s.fn()
		} else {
			err = t.span(s.name, s.fn)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return &artifact{built: built, rt: rt}, nil
}

// compileAlloc returns the bytes the rebuilt compile of src allocates,
// measured without the tracer so that the count repeats exactly.
func compileAlloc(src string) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := (&tctx{}).compile(src)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// mcSpec is one Monte Carlo query: a single-bound run when bounds is nil,
// a shared-path sweep over bounds otherwise.
type mcSpec struct {
	goal     string
	bound    float64
	bounds   []float64
	strategy string
	delta    float64
	epsilon  float64
	seed     uint64
	workers  int
}

// monteCarlo rebuilds Model.Analyze (bounds nil) or Model.AnalyzeSweep
// from sim.NewEngine, rng.New(seed).Split(w), Engine.SamplePath,
// stats.NewGenerator / NewMultiEstimator, prop.NewSweep and
// parallel.Run / RunMulti.
func (t *tctx) monteCarlo(a *artifact, q mcSpec) (answer, error) {
	var (
		cfg    sim.Config
		params = stats.Params{Delta: q.delta, Epsilon: q.epsilon}
		sweep  *prop.Sweep
	)
	err := t.span("session.new", func() error {
		goal, err := a.built.CompileExpr(q.goal)
		if err != nil {
			return err
		}
		strat, err := strategy.ByName(q.strategy)
		if err != nil {
			return err
		}
		bound := q.bound
		if q.bounds != nil {
			bound = q.bounds[len(q.bounds)-1]
		}
		cfg = sim.Config{Strategy: strat, Property: prop.Reach(bound, goal), Locks: sim.LockViolates}
		return params.Validate()
	})
	if err != nil {
		return answer{}, err
	}
	if q.bounds != nil {
		if err := t.span("prop.new_sweep", func() error {
			sweep, err = prop.NewSweep(cfg.Property, q.bounds)
			return err
		}); err != nil {
			return answer{}, err
		}
		cfg.Property.Bound = sweep.Horizon()
	}
	var eng *sim.Engine
	if err := t.span("sim.new_engine", func() error {
		eng, err = sim.NewEngine(a.rt, cfg)
		return err
	}); err != nil {
		return answer{}, err
	}
	var (
		gen stats.Generator
		me  *stats.MultiEstimator
	)
	if err := t.span("stats.new", func() error {
		if sweep != nil {
			me, err = stats.NewMultiEstimator(stats.MethodChernoff, params, sweep.Cells())
		} else {
			gen, err = stats.NewGenerator(stats.MethodChernoff, params)
		}
		return err
	}); err != nil {
		return answer{}, err
	}

	workers := max(q.workers, 1)
	root := rng.New(q.seed)
	lanes := make([]laneRec, workers)
	for w := range lanes {
		lanes[w].src = root.Split(uint64(w))
	}
	path := func(w int) (sim.PathResult, error) {
		l := &lanes[w]
		start := t.tr.now()
		res, err := eng.SamplePath(l.src)
		if !t.det {
			l.paths = append(l.paths, [2]int64{start, t.tr.now()})
		}
		l.sampled++
		l.steps += int64(res.Steps)
		return res, err
	}

	runID := t.tr.begin("parallel.run", t.parent, t.query, 0)
	var mallocs0 runtime.MemStats
	if t.det {
		runtime.ReadMemStats(&mallocs0)
	}
	var out answer
	if sweep != nil {
		err = parallel.RunMulti(me, func(w, _ int, o []bool) error {
			res, err := path(w)
			if err != nil {
				return err
			}
			sweep.Outcomes(res.Satisfied, res.DecidedAt, o)
			return nil
		}, parallel.MultiOptions{Workers: workers})
		if err == nil {
			out.est = me.Estimates()
		}
	} else {
		var est stats.Estimate
		est, err = parallel.Run(gen, func(w, _ int) (bool, error) {
			res, err := path(w)
			return res.Satisfied, err
		}, parallel.Options{Workers: workers})
		out.est = []stats.Estimate{est}
	}
	var mallocs1 runtime.MemStats
	if t.det {
		runtime.ReadMemStats(&mallocs1)
	}
	t.tr.end(runID)
	if err != nil {
		return answer{}, err
	}
	for _, e := range out.est {
		out.p = append(out.p, e.Mean())
	}

	var sampled, steps int64
	for w := range lanes {
		sampled += lanes[w].sampled
		steps += lanes[w].steps
	}
	consumed := int64(out.est[0].Trials)
	if me != nil {
		consumed = int64(me.Paths())
	}
	_, hits, misses := eng.Stats()
	c := t.c
	c.mcRuns++
	c.pathsSampled += sampled
	c.pathsConsumed += consumed
	c.steps += steps
	c.hits += hits
	c.misses += misses
	c.overdrawRatios = append(c.overdrawRatios, float64(sampled)/float64(consumed))
	if t.det {
		c.mallocs += mallocs1.Mallocs - mallocs0.Mallocs
		return out, nil
	}
	// Each worker's lane span runs from its first path to its last; the
	// gaps between paths are the time it waited on the collector.
	for w := range lanes {
		l := &lanes[w]
		if len(l.paths) == 0 {
			continue
		}
		wid := t.tr.add(Span{Parent: runID, Query: t.query, Lane: w + 1, Name: "parallel.worker",
			Start: l.paths[0][0], End: l.paths[len(l.paths)-1][1]})
		for _, p := range l.paths {
			t.tr.add(Span{Parent: wid, Query: t.query, Lane: w + 1, Name: "sim.sample_path", Start: p[0], End: p[1]})
		}
	}
	return out, nil
}

// laneRec is one sampling worker's private record, touched only by that
// worker until the parallel run returns.
type laneRec struct {
	src     *rng.Source
	paths   [][2]int64
	sampled int64
	steps   int64
}

// exact rebuilds Model.CheckCTMC: symmetry.Detect and BuildQuotient (or
// ctmc.Build when explicit is set or no certified symmetry applies), then
// bisim.Lump and ReachWithin.
func (t *tctx) exact(a *artifact, goalSrc string, bound float64, explicit bool) (answer, error) {
	var (
		g   expr.Expr
		res *ctmc.BuildResult
		err error
	)
	if err := t.span("model.compile_expr", func() error {
		g, err = a.built.CompileExpr(goalSrc)
		return err
	}); err != nil {
		return answer{}, err
	}
	var red *symmetry.Reduction
	if !explicit {
		_ = t.span("symmetry.detect", func() error { red = symmetry.Detect(a.rt); return nil })
	}
	var before, after runtime.MemStats
	if red != nil && red.Invariant(g) {
		err = t.span("symmetry.quotient", func() error {
			res, err = symmetry.BuildQuotient(a.rt, red, g, maxStates)
			return err
		})
	} else {
		runtime.ReadMemStats(&before)
		err = t.span("ctmc.build", func() error {
			res, err = ctmc.Build(a.rt, g, maxStates)
			return err
		})
		runtime.ReadMemStats(&after)
		t.c.explicitBuilds++
		t.c.explicitAlloc += after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		return answer{}, err
	}
	var lumped *bisim.Result
	if err := t.span("bisim.lump", func() error {
		lumped, err = bisim.Lump(res.Chain)
		return err
	}); err != nil {
		return answer{}, err
	}
	var p float64
	if err := t.span("ctmc.solve", func() error {
		p, err = lumped.Quotient.ReachWithin(bound, 1e-10)
		return err
	}); err != nil {
		return answer{}, err
	}
	t.c.exactRuns++
	t.c.explored += int64(res.Explored)
	t.c.states += int64(res.Chain.NumStates())
	t.c.blocks += int64(lumped.Blocks)
	return answer{p: []float64{p}}, nil
}
