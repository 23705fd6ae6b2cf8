package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
)

// perLayer lists the per-layer metrics of the traced run, in report order.
var perLayer = []struct{ name, unit string }{
	{"slim.parse_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"model.instantiate_ms", "ms"},
	{"network.new_ms", "ms"},
	{"absint.analyze_ms", "ms"},
	{"compile.alloc_kb", "KiB"},
	{"session.new_ms", "ms"},
	{"sim.path_us", "us"},
	{"sim.step_ns", "ns"},
	{"sim.steps_per_path", "count"},
	{"sim.allocs_per_step", "count"},
	{"sim.paths_per_s", "1/s"},
	{"network.movecache_miss_rate", "ratio"},
	{"parallel.wait_share", "ratio"},
	{"parallel.overdraw_ratio", "ratio"},
	{"stats.paths_per_query", "count"},
	{"symmetry.detect_ms", "ms"},
	{"symmetry.quotient_ms", "ms"},
	{"ctmc.build_ms", "ms"},
	{"ctmc.explored", "count"},
	{"ctmc.states", "count"},
	{"ctmc.build_alloc_mb", "MB"},
	{"bisim.lump_ms", "ms"},
	{"bisim.blocks", "count"},
	{"ctmc.solve_ms", "ms"},
	{"serve.memo_ms.p50", "ms"},
	{"serve.warm_ms.p50", "ms"},
	{"serve.cold_ms.p50", "ms"},
	{"serve.model_hit_rate", "ratio"},
	{"serve.result_hit_rate", "ratio"},
	{"serve.useful_run_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"telemetry.report_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// layerInput is what one traced run (or the probe) gathered.
type layerInput struct {
	tr             *tracer
	det, pass      counts
	compileAllocKB float64
	queries        int
	passWall       int64 // ns spanned by the timed pass
	overhead       float64
	serve          *serveCounts
}

// serveCounts are the daemon's cache and queue figures over a traced pass.
type serveCounts struct {
	modelHitRate, resultHitRate float64
	usefulRunRatio              float64
	rejected                    int64
}

// layerMetrics derives the per-layer metrics li can give. Timings come
// from the spans of the given phases; counters that must repeat exactly
// come from the workers=1 pass, or from the setup's fixed reference set
// where the workload has no such pass for the layer.
func layerMetrics(li *layerInput, phases ...string) map[string]float64 {
	in := map[string]bool{}
	for _, p := range phases {
		in[p] = true
	}
	var spans []Span
	for _, s := range li.tr.snapshot() {
		if in[s.Phase] {
			spans = append(spans, s)
		}
	}
	sum := map[string]int64{}
	n := map[string]int{}
	durs := map[string][]float64{}
	for _, s := range spans {
		sum[s.Name] += s.Dur()
		n[s.Name]++
		durs[s.Name] = append(durs[s.Name], float64(s.Dur())/1e6)
	}
	m := map[string]float64{}
	meanMS := func(metric, span string) {
		if n[span] > 0 {
			m[metric] = float64(sum[span]) / float64(n[span]) / 1e6
		}
	}
	meanMS("slim.parse_ms", "slim.parse")
	meanMS("lint.run_ms", "lint.run")
	meanMS("model.instantiate_ms", "model.instantiate")
	meanMS("network.new_ms", "network.new")
	meanMS("absint.analyze_ms", "absint.analyze")
	if li.compileAllocKB > 0 {
		m["compile.alloc_kb"] = li.compileAllocKB
	}
	meanMS("session.new_ms", "session.new")
	meanMS("symmetry.detect_ms", "symmetry.detect")
	meanMS("symmetry.quotient_ms", "symmetry.quotient")
	meanMS("ctmc.build_ms", "ctmc.build")
	meanMS("bisim.lump_ms", "bisim.lump")
	meanMS("ctmc.solve_ms", "ctmc.solve")
	meanMS("telemetry.report_ms", "telemetry.report")
	for _, class := range []string{"memo", "warm", "cold"} {
		if d := durs["serve."+class]; len(d) > 0 {
			m["serve."+class+"_ms.p50"] = percentile(d, 50)
		}
	}

	if p := li.pass; p.pathsSampled > 0 && n["sim.sample_path"] > 0 {
		m["sim.path_us"] = float64(sum["sim.sample_path"]) / float64(n["sim.sample_path"]) / 1e3
		m["sim.step_ns"] = float64(sum["sim.sample_path"]) / float64(p.steps)
		m["sim.paths_per_s"] = float64(p.pathsSampled) / (float64(sum["parallel.run"]) / 1e9)
		m["parallel.overdraw_ratio"] = float64(p.pathsSampled) / float64(p.pathsConsumed)
		var busy, wait int64
		self := selfTimes(spans)
		for i, s := range spans {
			if s.Name == "parallel.worker" {
				busy += s.Dur()
				wait += self[i]
			}
		}
		if busy > 0 {
			m["parallel.wait_share"] = float64(wait) / float64(busy)
		}
	}
	if d := li.det; d.mcRuns > 0 {
		m["sim.steps_per_path"] = float64(d.steps) / float64(d.pathsSampled)
		m["sim.allocs_per_step"] = float64(d.mallocs) / float64(d.steps)
		m["network.movecache_miss_rate"] = float64(d.misses) / float64(d.hits+d.misses)
		m["stats.paths_per_query"] = float64(d.pathsConsumed) / float64(d.mcRuns)
	}
	exact := li.det
	if exact.exactRuns == 0 {
		exact = li.pass
	}
	if exact.exactRuns > 0 {
		m["ctmc.explored"] = float64(exact.explored) / float64(exact.exactRuns)
		m["ctmc.states"] = float64(exact.states) / float64(exact.exactRuns)
		m["bisim.blocks"] = float64(exact.blocks) / float64(exact.exactRuns)
	}
	if exact.explicitBuilds > 0 {
		m["ctmc.build_alloc_mb"] = float64(exact.explicitAlloc) / float64(exact.explicitBuilds) / (1 << 20)
	}
	if s := li.serve; s != nil {
		m["serve.model_hit_rate"] = s.modelHitRate
		m["serve.result_hit_rate"] = s.resultHitRate
		m["serve.useful_run_ratio"] = s.usefulRunRatio
		m["serve.rejected"] = float64(s.rejected)
	}
	if li.overhead > 0 {
		m["trace.overhead"] = li.overhead
	}
	return m
}

// selfShares ranks the layers, and within them the span names, by their
// share of self time in the timed pass over all lanes, and checks that each
// lane's self times sum to within the pass's wall time.
func selfShares(li *layerInput) (layers, names string, err error) {
	var spans []Span
	for _, s := range li.tr.snapshot() {
		if s.Phase == "pass" {
			spans = append(spans, s)
		}
	}
	byLayer, err := layerShares(spans, li.passWall)
	if err != nil {
		return "", "", err
	}
	byName := map[string]int64{}
	for i, self := range selfTimes(spans) {
		byName[spans[i].Name] += self
	}
	return ranking(byLayer), ranking(byName), nil
}

// ranking renders shares in descending order.
func ranking(shares map[string]int64) string {
	var total int64
	keys := make([]string, 0, len(shares))
	for k, v := range shares {
		total += v
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s %.1f%%", k, 100*float64(shares[k])/float64(total))
	}
	return strings.TrimSpace(b.String())
}

// finishTrace finishes a traced run: it fills the layers the workload bypasses
// from the probe, checks the self-time sums, writes the spans and returns
// the per-layer metrics.
func finishTrace(e *env, li *layerInput, workload, spansPath string) (*outcome, error) {
	own := layerMetrics(li, "setup", "pass", "check")
	layers, names, err := selfShares(li)
	if err != nil {
		return nil, err
	}
	e.printf("traced pass: %d queries, trace.overhead %.3f\n", li.queries, li.overhead)
	e.printf("self-time share by layer (timed pass, all lanes): %s\n", layers)
	e.printf("self-time share by span: %s\n", names)
	if r := li.pass.overdrawRatios; len(r) >= 2 {
		q1, q3 := quartiles(r)
		e.printf("parallel.overdraw_ratio per query: median %.4f, quartiles %.4f..%.4f over %d queries (depends on timing)\n",
			median(r), q1, q3, len(r))
	}

	var missing []string
	for _, pl := range perLayer {
		if _, ok := own[pl.name]; !ok {
			missing = append(missing, pl.name)
		}
	}
	var probed map[string]float64
	if len(missing) > 0 {
		pli, err := probe(e, li.tr)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		probed = layerMetrics(pli, "probe")
		e.printf("measured on the probe (layers %s bypasses): %s\n", workload, strings.Join(missing, " "))
	}
	if err := li.tr.write(spansPath); err != nil {
		return nil, err
	}
	e.printf("spans: %s\n", spansPath)

	out := &outcome{attempted: max(li.queries, 1), metrics: map[string]metric{}}
	for _, pl := range perLayer {
		v, ok := own[pl.name]
		if !ok {
			v, ok = probed[pl.name]
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
		out.metrics[pl.name] = metric{v, pl.unit}
	}
	return out, nil
}

// withProcs runs fn with GOMAXPROCS set to procs.
func withProcs(procs int, fn func() error) error {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}
