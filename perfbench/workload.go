package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 9

// env is what every workload is run with.
type env struct {
	root    string // repository root: the committed BENCH_*.json files
	seed    uint64
	seconds float64
	out     io.Writer // human-readable report lines
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// query is one generated input of a sequential workload.
type query struct {
	Class    string  `json:"class"`
	Model    int     `json:"model"`
	Strategy string  `json:"strategy,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Explicit bool    `json:"explicit,omitempty"`
}

// sample is one timed query: its class, latency and whether it failed
// (errored, was refused or failed its output check).
type sample struct {
	class  string
	ms     float64
	failed bool
}

// recorder collects the samples of a run; clients add concurrently.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	errs    []string
}

func (r *recorder) add(class string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{class: class, ms: float64(d) / float64(time.Millisecond), failed: err != nil})
	if err != nil && len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", class, err))
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

// digest returns a short hex digest of the JSON encoding of v: two runs
// that print the same digest measured the same inputs.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// timeSetup runs setup setupRuns times and returns the median duration in
// seconds. Each call replaces the state of the previous one; teardown, when
// non-nil, releases it between calls, outside the timing.
func timeSetup(setup func() error, teardown func()) (float64, error) {
	var runs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		runs = append(runs, time.Since(start).Seconds())
	}
	return median(runs), nil
}

// endToEnd turns the samples of a run into the end-to-end metrics.
func endToEnd(e *env, rec *recorder, wall time.Duration, setupS float64) (*outcome, error) {
	out := &outcome{metrics: map[string]metric{}}
	var lat []float64
	byClass := map[string][]float64{}
	for _, s := range rec.samples {
		out.attempted++
		if s.failed {
			out.failed++
			continue
		}
		lat = append(lat, s.ms)
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("no query completed within %gs", e.seconds)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ok := float64(out.attempted - out.failed)
	out.metrics["setup_s"] = metric{setupS, "s"}
	out.metrics["queries_per_s"] = metric{ok / wall.Seconds(), "1/s"}
	out.metrics["latency_ms.p50"] = metric{percentile(lat, 50), "ms"}
	out.metrics["latency_ms.p90"] = metric{percentile(lat, 90), "ms"}
	out.metrics["peak_rss_mb"] = metric{rss, "MB"}

	e.printf("queries: %d attempted, %d failed (failed_frac %.4f), %d latency samples; highest percentile with %d samples beyond it: p%d\n",
		out.attempted, out.failed, float64(out.failed)/float64(out.attempted), len(lat), tailSamples, highestPercentile(len(lat)))
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return median(byClass[classes[i]]) < median(byClass[classes[j]]) })
	for _, c := range classes {
		v := byClass[c]
		sort.Float64s(v)
		var marks []string
		if p50 >= v[0] && p50 <= v[len(v)-1] {
			marks = append(marks, "p50")
		}
		if p90 >= v[0] && p90 <= v[len(v)-1] {
			marks = append(marks, "p90")
		}
		e.printf("  class %-14s n=%-5d share=%.3f min=%.3fms median=%.3fms max=%.3fms %s\n",
			c, len(v), float64(len(v))/float64(len(lat)), v[0], median(v), v[len(v)-1], strings.Join(marks, " "))
	}
	for _, msg := range rec.errs {
		e.printf("  failure: %s\n", msg)
	}
	return out, nil
}

// seqWorkload is a workload driven by one client issuing the queries of
// its schedule in order.
type seqWorkload interface {
	// generate builds the seeded input set and returns what its digest
	// covers.
	generate(seed uint64) (any, error)
	// prepare loads committed reference values and computes reference
	// answers; it is not part of setup.
	prepare(root string) error
	// sources returns the model sources the workload compiles.
	sources() []string
	// setup compiles the models and warms up; every call starts afresh.
	setup() error
	// schedule returns the queries in order; block is the length of the
	// stratified blocks the schedule is made of.
	schedule() []query
	block() int
	// workers is the sampling worker count of the workload's queries.
	workers() int
	// facade answers q through the public API.
	facade(q query, workers int) (answer, error)
	// rebuilt answers q through the traced rebuilt flows.
	rebuilt(t *tctx, arts []*artifact, q query, workers int) (answer, error)
	// check verifies an answer of q.
	check(q query, a answer) error
	// references recomputes, through the traced rebuilt flows, the
	// reference answers prepare computed through the facade.
	references(t *tctx, arts []*artifact) error
}

// runSeq is the untraced run of a sequential workload.
func runSeq(e *env, w seqWorkload) (*outcome, error) {
	in, err := w.generate(e.seed)
	if err != nil {
		return nil, err
	}
	e.printf("input digest: %s\n", digest(in))
	if err := w.prepare(e.root); err != nil {
		return nil, err
	}
	setupS, err := timeSetup(w.setup, nil)
	if err != nil {
		return nil, err
	}
	sched := w.schedule()
	rec := &recorder{}
	var first answer
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	// The run measures whole blocks, so that every query class keeps its
	// share of the samples and p50 and p90 keep their place inside their
	// class. A block starts only if, with half a mean block added, the run
	// still ends within its seconds.
	start := time.Now()
	limit := time.Duration(e.seconds * float64(time.Second))
	bl := w.block()
	for i := 0; ; i++ {
		if i > 0 && i%bl == 0 {
			el := time.Since(start)
			if el+el*time.Duration(bl)/time.Duration(2*i) > limit {
				break
			}
		}
		q := sched[i%len(sched)]
		t0 := time.Now()
		a, err := w.facade(q, w.workers())
		d := time.Since(t0)
		if err == nil {
			err = w.check(q, a)
		}
		if i == 0 {
			first = a
		}
		rec.add(q.Class, d, err)
	}
	wall := time.Since(start)
	// A repeat of the first query with the same seed and workers must give
	// a bit-identical answer.
	again, err := w.facade(sched[0], w.workers())
	if err == nil && !again.same(first) {
		err = fmt.Errorf("repeat of query 0 gave %v, first run gave %v", again, first)
	}
	if err != nil {
		rec.add("repeat", 0, err)
	}
	return endToEnd(e, rec, wall, setupS)
}

// traceSeq is the traced run of a sequential workload: a traced setup, a
// workers=1 pass over the first block for the counters that must repeat
// exactly, then the timed pass, which answers each query through the facade
// and through the traced rebuilt flows and requires the two answers to be
// bit-identical.
func traceSeq(e *env, w seqWorkload, tr *tracer) (*layerInput, error) {
	in, err := w.generate(e.seed)
	if err != nil {
		return nil, err
	}
	e.printf("input digest: %s\n", digest(in))
	if err := w.prepare(e.root); err != nil {
		return nil, err
	}
	li := &layerInput{tr: tr}
	if err := w.setup(); err != nil {
		return nil, err
	}
	if li.compileAllocKB, err = compileAllocKB(w.sources()); err != nil {
		return nil, err
	}
	setupID := tr.begin("bench.setup", -1, -1, 0)
	tc := &tctx{tr: tr, c: &li.pass, query: -1, parent: setupID}
	arts := make([]*artifact, len(w.sources()))
	for i, src := range w.sources() {
		if arts[i], err = tc.compile(src); err != nil {
			return nil, err
		}
	}
	err = w.references(tc, arts)
	tr.end(setupID)
	if err != nil {
		return nil, err
	}

	sched := w.schedule()
	tr.setPhase("det")
	err = withProcs(1, func() error {
		for i, q := range sched[:w.block()] {
			id := tr.begin("bench.query", -1, i, 0)
			_, err := w.rebuilt(&tctx{tr: tr, c: &li.det, query: i, parent: id, det: true}, arts, q, 1)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("workers=1 pass, query %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tr.setPhase("pass")
	var facadeWall, tracedWall time.Duration
	passStart := tr.now()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		q := sched[i%len(sched)]
		t0 := time.Now()
		want, err := w.facade(q, w.workers())
		facadeWall += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("query %d through the facade: %w", i, err)
		}
		t1 := time.Now()
		id := tr.begin("bench.query", -1, i, 0)
		got, err := w.rebuilt(&tctx{tr: tr, c: &li.pass, query: i, parent: id}, arts, q, w.workers())
		tr.end(id)
		tracedWall += time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("query %d through the rebuilt flow: %w", i, err)
		}
		if !got.same(want) {
			return nil, fmt.Errorf("query %d: rebuilt flow answered %v, the facade %v", i, got, want)
		}
		if err := w.check(q, got); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		li.queries++
	}
	li.passWall = tr.now() - passStart
	li.overhead = tracedWall.Seconds() / facadeWall.Seconds()
	return li, nil
}

// compileAllocKB sums the rebuilt compile's allocations over sources, in
// whole KiB.
func compileAllocKB(sources []string) (float64, error) {
	var total uint64
	for _, src := range sources {
		n, err := compileAlloc(src)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return math.Floor(float64(total) / 1024), nil
}
