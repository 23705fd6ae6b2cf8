package main

import (
	"fmt"

	"slimsim/internal/casestudy"
	"slimsim/internal/serve"
)

// probe measures, on one small fixed input, the layers a workload's traced
// run does not reach, so that every traced run reports every per-layer
// metric. It runs the sensor filter at N=3 through the rebuilt compile,
// both exact flows, a single-bound Monte Carlo run at workers 2 and 1, and
// a cold, a warm and a memoized daemon request. Its spans carry the phase
// "probe" and never enter a workload's self-time ranking.
func probe(e *env, tr *tracer) (*layerInput, error) {
	tr.setPhase("probe")
	li := &layerInput{tr: tr}
	srcs, err := sensorFilters([]int{3})
	if err != nil {
		return nil, err
	}
	src := srcs[0]
	if li.compileAllocKB, err = compileAllocKB(srcs); err != nil {
		return nil, err
	}
	id := tr.begin("bench.probe", -1, -1, 0)
	defer tr.end(id)
	t := &tctx{tr: tr, c: &li.pass, query: -1, parent: id}
	art, err := t.compile(src)
	if err != nil {
		return nil, err
	}
	spec := mcSpec{goal: casestudy.SensorFilterGoal, bound: table1Bound, strategy: "asap", delta: 0.05, epsilon: 0.1, seed: 1, workers: 2}
	if _, err := t.monteCarlo(art, spec); err != nil {
		return nil, err
	}
	err = withProcs(1, func() error {
		d := &tctx{tr: tr, c: &li.det, query: -1, parent: id, det: true}
		spec.workers = 1
		if _, err := d.monteCarlo(art, spec); err != nil {
			return err
		}
		for _, explicit := range []bool{false, true} {
			if _, err := d.exact(art, casestudy.SensorFilterGoal, table1Bound, explicit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, explicit := range []bool{false, true} {
		if _, err := t.exact(art, casestudy.SensorFilterGoal, table1Bound, explicit); err != nil {
			return nil, err
		}
	}

	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.close()
	req := serve.Request{Model: src, Goal: casestudy.SensorFilterGoal, Bound: table1Bound, Strategy: "asap",
		Epsilon: 0.1, Workers: 1}
	var warm *serve.Response
	for i, seed := range []uint64{1, 2, 1} {
		req.Seed = seed
		start := tr.now()
		resp, err := srv.analyze(req)
		if err != nil {
			return nil, err
		}
		name := []string{"serve.cold", "serve.warm", "serve.memo"}[i]
		if resp.CompiledCacheHit != (i > 0) || resp.ResultCacheHit != (i == 2) {
			return nil, fmt.Errorf("%s request: compiledCacheHit=%v resultCacheHit=%v", name, resp.CompiledCacheHit, resp.ResultCacheHit)
		}
		tr.add(Span{Parent: id, Query: -1, Lane: 0, Name: name, Start: start, End: tr.now()})
		if i == 1 {
			warm = resp
		}
	}
	st := srv.srv.Stats()
	li.serve = &serveCounts{modelHitRate: st.CompiledModels.HitRate, resultHitRate: st.Results.HitRate,
		usefulRunRatio: 1, rejected: st.Jobs.Rejected}
	req.Seed = 2
	if err := rebuildJob(tr, &li.pass, req, warm, -1); err != nil {
		return nil, err
	}
	e.printf("probe: sensor filter N=3, both exact flows, Monte Carlo at workers 2 and 1, three daemon requests\n")
	return li, nil
}
