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
	"slimsim/internal/stats"
)

// table1Bound is the time bound of the committed Table I.
const table1Bound = 150

// sensorFilters renders the default sensor-filter model at each size.
func sensorFilters(sizes []int) ([]string, error) {
	srcs := make([]string, len(sizes))
	for i, n := range sizes {
		src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
		if err != nil {
			return nil, err
		}
		srcs[i] = src
	}
	return srcs, nil
}

// loadAll compiles every source through the facade.
func loadAll(srcs []string) ([]*slimsim.Model, error) {
	ms := make([]*slimsim.Model, len(srcs))
	for i, src := range srcs {
		m, err := slimsim.LoadModel(src)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// table1Sim is the right half of Table I: single-bound Analyze on the
// sensor filter at N = 3, 5 and 7 in equal shares.
type table1Sim struct {
	srcs  []string
	ms    []*slimsim.Model
	sched []query
	// exact holds the quotient answer per model, computed before setup.
	exact []float64
}

var table1SimSizes = []int{3, 5, 7}

const (
	table1SimEpsilon = 0.04
	table1SimBlocks  = 400
)

func (w *table1Sim) generate(seed uint64) (any, error) {
	srcs, err := sensorFilters(table1SimSizes)
	if err != nil {
		return nil, err
	}
	w.srcs = srcs
	r := rand.New(rand.NewPCG(seed, 0x5eed0002))
	w.sched = nil
	for b := 0; b < table1SimBlocks; b++ {
		for _, i := range r.Perm(len(table1SimSizes)) {
			w.sched = append(w.sched, query{Class: fmt.Sprintf("N=%d", table1SimSizes[i]), Model: i,
				Strategy: "asap", Epsilon: table1SimEpsilon, Seed: r.Uint64()>>1 + 1})
		}
	}
	return struct {
		Srcs  []string
		Sched []query
	}{w.srcs, w.sched}, nil
}

// prepare computes the exact quotient answer of every size; these
// reference computations are not part of setup.
func (w *table1Sim) prepare(string) error {
	ms, err := loadAll(w.srcs)
	if err != nil {
		return err
	}
	w.exact = make([]float64, len(ms))
	for i, m := range ms {
		rep, err := m.CheckCTMC(casestudy.SensorFilterGoal, table1Bound, maxStates)
		if err != nil {
			return err
		}
		w.exact[i] = rep.Probability
	}
	return nil
}

func (w *table1Sim) sources() []string { return w.srcs }

func (w *table1Sim) setup() error {
	ms, err := loadAll(w.srcs)
	if err != nil {
		return err
	}
	w.ms = ms
	for _, m := range ms {
		if _, err := m.Analyze(slimsim.Options{Goal: casestudy.SensorFilterGoal, Bound: table1Bound,
			Strategy: "asap", Epsilon: 0.1, Workers: 2}); err != nil {
			return err
		}
	}
	return nil
}

func (w *table1Sim) schedule() []query { return w.sched }
func (w *table1Sim) block() int        { return 2 * len(table1SimSizes) }
func (w *table1Sim) workers() int      { return 2 }

func (w *table1Sim) facade(q query, workers int) (answer, error) {
	rep, err := w.ms[q.Model].Analyze(slimsim.Options{Goal: casestudy.SensorFilterGoal, Bound: table1Bound,
		Strategy: q.Strategy, Delta: 0.05, Epsilon: q.Epsilon, Workers: workers, Seed: q.Seed})
	if err != nil {
		return answer{}, err
	}
	return answer{est: []stats.Estimate{rep.Estimate}, p: []float64{rep.Probability}}, nil
}

func (w *table1Sim) rebuilt(t *tctx, arts []*artifact, q query, workers int) (answer, error) {
	return t.monteCarlo(arts[q.Model], mcSpec{goal: casestudy.SensorFilterGoal, bound: table1Bound,
		strategy: q.Strategy, delta: 0.05, epsilon: q.Epsilon, seed: q.Seed, workers: workers})
}

// check requires the estimate within 2ε of the exact quotient answer.
func (w *table1Sim) check(q query, a answer) error {
	if d := math.Abs(a.p[0] - w.exact[q.Model]); d > 2*q.Epsilon {
		return fmt.Errorf("%s: P=%.4f, exact %.4f", q.Class, a.p[0], w.exact[q.Model])
	}
	return nil
}

// references recomputes the exact answers through the traced rebuilt
// exact flow; they must equal the facade's bit for bit.
func (w *table1Sim) references(t *tctx, arts []*artifact) error {
	for i, a := range arts {
		got, err := t.exact(a, casestudy.SensorFilterGoal, table1Bound, false)
		if err != nil {
			return err
		}
		if !got.same(answer{p: []float64{w.exact[i]}}) {
			return fmt.Errorf("N=%d: rebuilt exact flow answered %v, the facade %v", table1SimSizes[i], got, w.exact[i])
		}
	}
	return nil
}

// table1Exact is the left half of Table I, without sampling: CheckCTMC's
// explicit flow at N = 4 and 6 and its counter-abstracted quotient at
// N = 12. Each block of 20 queries holds 14 quotient queries, 2 explicit
// N=4 and 4 explicit N=6, so the median falls in the middle of the quotient
// queries and the 90th percentile in the middle of the explicit N=6 ones,
// where their order statistics vary least.
type table1Exact struct {
	srcs  []string
	ms    []*slimsim.Model
	sched []query
	// pinned holds the committed Table I answer per query class;
	// quotient the quotient answer per model, for the explicit flow to
	// agree with.
	pinned   map[string]float64
	quotient []float64
}

var table1ExactSizes = []int{4, 6, 12}

const table1ExactBlocks = 100

func (w *table1Exact) generate(seed uint64) (any, error) {
	srcs, err := sensorFilters(table1ExactSizes)
	if err != nil {
		return nil, err
	}
	w.srcs = srcs
	r := rand.New(rand.NewPCG(seed, 0x5eed0003))
	w.sched = nil
	for b := 0; b < table1ExactBlocks; b++ {
		var block []query
		for i := 0; i < 20; i++ {
			switch {
			case i < 14:
				block = append(block, query{Class: "quotient-N=12", Model: 2})
			case i < 16:
				block = append(block, query{Class: "explicit-N=4", Model: 0, Explicit: true})
			default:
				block = append(block, query{Class: "explicit-N=6", Model: 1, Explicit: true})
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		w.sched = append(w.sched, block...)
	}
	return struct {
		Srcs  []string
		Sched []query
	}{w.srcs, w.sched}, nil
}

// prepare loads the pinned Table I values and computes the quotient answer
// at N = 4 and 6.
func (w *table1Exact) prepare(root string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCH_table1.json"))
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
		return fmt.Errorf("BENCH_table1.json: %w", err)
	}
	cells := map[string]float64{}
	for _, row := range doc.Experiment.Rows {
		for k, v := range row.Values {
			cells[row.Label+"/"+k] = v
		}
	}
	w.pinned = map[string]float64{}
	for class, cell := range map[string]string{
		"explicit-N=4":  "size=4/pCtmc",
		"explicit-N=6":  "size=6/pCtmc",
		"quotient-N=12": "size=12/pQuotient",
	} {
		v, ok := cells[cell]
		if !ok {
			return fmt.Errorf("BENCH_table1.json has no %s", cell)
		}
		w.pinned[class] = v
	}
	ms, err := loadAll(w.srcs)
	if err != nil {
		return err
	}
	w.quotient = make([]float64, len(ms))
	for i, m := range ms {
		rep, err := m.CheckCTMC(casestudy.SensorFilterGoal, table1Bound, maxStates)
		if err != nil {
			return err
		}
		if rep.Symmetry == nil {
			return fmt.Errorf("N=%d: the symmetry reduction did not engage", table1ExactSizes[i])
		}
		w.quotient[i] = rep.Probability
	}
	return nil
}

func (w *table1Exact) sources() []string { return w.srcs }

func (w *table1Exact) setup() error {
	ms, err := loadAll(w.srcs)
	if err != nil {
		return err
	}
	w.ms = ms
	_, err = ms[0].CheckCTMC(casestudy.SensorFilterGoal, table1Bound, maxStates)
	return err
}

func (w *table1Exact) schedule() []query { return w.sched }
func (w *table1Exact) block() int        { return 20 }
func (w *table1Exact) workers() int      { return 1 }

func (w *table1Exact) facade(q query, _ int) (answer, error) {
	var opts []slimsim.CTMCOption
	if q.Explicit {
		opts = append(opts, slimsim.WithoutSymmetry())
	}
	rep, err := w.ms[q.Model].CheckCTMC(casestudy.SensorFilterGoal, table1Bound, maxStates, opts...)
	if err != nil {
		return answer{}, err
	}
	if (rep.Symmetry == nil) != q.Explicit {
		return answer{}, fmt.Errorf("%s: symmetry reduction engaged=%v", q.Class, rep.Symmetry != nil)
	}
	return answer{p: []float64{rep.Probability}}, nil
}

func (w *table1Exact) rebuilt(t *tctx, arts []*artifact, q query, _ int) (answer, error) {
	return t.exact(arts[q.Model], casestudy.SensorFilterGoal, table1Bound, q.Explicit)
}

// check requires the pinned Table I value exactly and, for the explicit
// flow, agreement with the quotient to 1e-12.
func (w *table1Exact) check(q query, a answer) error {
	p := a.p[0]
	if want := w.pinned[q.Class]; p != want {
		return fmt.Errorf("%s: P=%.17g, pinned %.17g", q.Class, p, want)
	}
	if q.Explicit {
		if d := math.Abs(p - w.quotient[q.Model]); d > 1e-12 {
			return fmt.Errorf("%s: explicit %.17g and quotient %.17g differ by %.3g", q.Class, p, w.quotient[q.Model], d)
		}
	}
	return nil
}

func (w *table1Exact) references(*tctx, []*artifact) error { return nil }
