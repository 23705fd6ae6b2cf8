package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"

	"slimsim"
	"slimsim/internal/casestudy"
)

// strategies are the four scheduling strategies of Fig. 5.
var strategies = []string{"asap", "progressive", "local", "maxtime"}

// fig5Bounds are the time bounds of the committed Fig. 5 sweep.
var fig5Bounds = []float64{200, 400, 600, 800, 1000, 1200}

// launcherSweep is the Fig. 5 workload: AnalyzeSweep over the recoverable
// launcher, cycling the four strategies. Each block of 20 queries holds 12
// at a loose accuracy and 8 at a tight one, so the median falls among the
// loose sweeps and the 90th percentile among the tight ones.
type launcherSweep struct {
	src   string
	m     *slimsim.Model
	sched []query
	// ref maps strategy and bound to the committed Fig. 5 cell.
	ref map[string]map[float64]float64
}

const (
	sweepLoose, sweepTight = 0.06, 0.03
	sweepBlocks            = 100
)

func (w *launcherSweep) generate(seed uint64) (any, error) {
	src, err := casestudy.Launcher(casestudy.DefaultLauncher(casestudy.FaultsRecoverable))
	if err != nil {
		return nil, err
	}
	w.src = src
	r := rand.New(rand.NewPCG(seed, 0x5eed0001))
	w.sched = nil
	for b := 0; b < sweepBlocks; b++ {
		var block []query
		for i := 0; i < 20; i++ {
			q := query{Class: "sweep-loose", Epsilon: sweepLoose}
			if i >= 12 {
				q = query{Class: "sweep-tight", Epsilon: sweepTight}
			}
			q.Strategy = strategies[i%4]
			block = append(block, q)
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			block[i].Seed = r.Uint64()>>1 + 1
		}
		w.sched = append(w.sched, block...)
	}
	return struct {
		Src   string
		Sched []query
	}{w.src, w.sched}, nil
}

func (w *launcherSweep) prepare(root string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCH_fig5-recoverable.json"))
	if err != nil {
		return err
	}
	var doc struct {
		Experiment struct {
			Rows []struct {
				Label  string             `json:"label"`
				Values map[string]float64 `json:"values"`
			} `json:"rows"`
		} `json:"experiment"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("BENCH_fig5-recoverable.json: %w", err)
	}
	w.ref = map[string]map[float64]float64{}
	for _, row := range doc.Experiment.Rows {
		var u float64
		var s string
		if n, _ := fmt.Sscanf(row.Label, "u=%g/strategy=%s", &u, &s); n != 2 {
			continue
		}
		if w.ref[s] == nil {
			w.ref[s] = map[float64]float64{}
		}
		w.ref[s][u] = row.Values["p"]
	}
	for _, s := range strategies {
		for _, u := range fig5Bounds {
			if _, ok := w.ref[s][u]; !ok {
				return fmt.Errorf("BENCH_fig5-recoverable.json has no cell u=%g/strategy=%s", u, s)
			}
		}
	}
	return nil
}

func (w *launcherSweep) sources() []string { return []string{w.src} }

func (w *launcherSweep) setup() error {
	m, err := slimsim.LoadModel(w.src)
	if err != nil {
		return err
	}
	w.m = m
	// Warm-up: one coarse sweep, so pools and caches are filled before
	// the first timed query.
	_, err = m.AnalyzeSweep(slimsim.Options{Goal: casestudy.LauncherGoal, Strategy: "asap", Epsilon: 0.1, Workers: 2}, fig5Bounds)
	return err
}

func (w *launcherSweep) schedule() []query { return w.sched }
func (w *launcherSweep) block() int        { return 20 }
func (w *launcherSweep) workers() int      { return 2 }

func (w *launcherSweep) options(q query, workers int) slimsim.Options {
	return slimsim.Options{Goal: casestudy.LauncherGoal, Strategy: q.Strategy, Delta: 0.05, Epsilon: q.Epsilon,
		Workers: workers, Seed: q.Seed}
}

func (w *launcherSweep) facade(q query, workers int) (answer, error) {
	rep, err := w.m.AnalyzeSweep(w.options(q, workers), fig5Bounds)
	if err != nil {
		return answer{}, err
	}
	var a answer
	for _, c := range rep.Cells {
		a.est = append(a.est, c.Estimate)
		a.p = append(a.p, c.Probability)
	}
	return a, nil
}

func (w *launcherSweep) rebuilt(t *tctx, arts []*artifact, q query, workers int) (answer, error) {
	return t.monteCarlo(arts[0], mcSpec{goal: casestudy.LauncherGoal, bounds: fig5Bounds, strategy: q.Strategy,
		delta: 0.05, epsilon: q.Epsilon, seed: q.Seed, workers: workers})
}

// check requires every cell within 2ε + 0.01 of the committed Fig. 5 cell
// and the estimates to be monotone in the bound.
func (w *launcherSweep) check(q query, a answer) error {
	if len(a.p) != len(fig5Bounds) {
		return fmt.Errorf("sweep returned %d cells, want %d", len(a.p), len(fig5Bounds))
	}
	tol := 2*q.Epsilon + 0.01
	for i, u := range fig5Bounds {
		ref := w.ref[q.Strategy][u]
		if math.Abs(a.p[i]-ref) > tol {
			return fmt.Errorf("%s u=%g: P=%.4f, committed %.4f, tolerance %.3f", q.Strategy, u, a.p[i], ref, tol)
		}
		if i > 0 && a.p[i] < a.p[i-1] {
			return fmt.Errorf("%s: P(u=%g)=%.4f below P(u=%g)=%.4f", q.Strategy, u, a.p[i], fig5Bounds[i-1], a.p[i-1])
		}
	}
	return nil
}

func (w *launcherSweep) references(*tctx, []*artifact) error { return nil }
