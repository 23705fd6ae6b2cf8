package parallel

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"slimsim/internal/stats"
)

// stallFirst makes worker 0's first sample wait until worker 1 has
// produced want samples. Worker 1 can get that far only if it runs ahead of
// the collector, which is itself stuck waiting for worker 0: want =
// runAhead+1 is the most it can hold (a full buffer plus one sample
// blocked in its send), so the wait ends exactly at the run-ahead bound.
type stallFirst struct {
	want     int64
	produced [2]atomic.Int64
	released chan struct{}
}

func newStallFirst(want int) *stallFirst {
	return &stallFirst{want: int64(want), released: make(chan struct{})}
}

// sampled is called after worker w produced a sample.
func (s *stallFirst) sampled(w int) {
	if s.produced[w].Add(1) == s.want && w == 1 {
		close(s.released)
	}
}

// gate blocks worker 0's iteration 0 until worker 1 has produced want
// samples.
func (s *stallFirst) gate(w, iteration int) {
	if w == 0 && iteration == 0 {
		<-s.released
	}
}

func (s *stallFirst) total() int { return int(s.produced[0].Load() + s.produced[1].Load()) }

// outcome is the pure per-(worker, iteration) verdict the run-ahead tests
// sample, so the sequential-interleaving reference can be computed apart.
func outcome(w, iteration int) bool { return (w*7+iteration*13)%5 < 2 }

// withTimeout fails the test if run does not return within a generous
// deadline, which is how a collector deadlock would show.
func withTimeout(t *testing.T, run func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
	}
}

type consumedSample struct {
	worker, iteration int
	ok                bool
}

// TestRunAheadRun: with worker 0 stalled until worker 1 is runAhead+1
// samples ahead, Run completes, consumes exactly the sequential
// interleaving (sample i from worker i mod k, iteration i div k), and
// overdraws at most k·(runAhead+1) samples.
func TestRunAheadRun(t *testing.T) {
	const k = 2
	params := stats.Params{Delta: 0.1, Epsilon: 0.05}

	// Sequential-interleaving reference.
	ref, err := stats.NewChowRobbins(params)
	if err != nil {
		t.Fatal(err)
	}
	var want []consumedSample
	for i := 0; !ref.Done(); i++ {
		c := consumedSample{i % k, i / k, outcome(i%k, i/k)}
		ref.Add(c.ok)
		want = append(want, c)
	}

	stall := newStallFirst(runAhead + 1)
	gen, err := stats.NewChowRobbins(params)
	if err != nil {
		t.Fatal(err)
	}
	var got []consumedSample
	var est stats.Estimate
	withTimeout(t, func() {
		est, err = Run(gen, func(w, iteration int) (bool, error) {
			stall.gate(w, iteration)
			defer stall.sampled(w)
			return outcome(w, iteration), nil
		}, Options{Workers: k, OnSample: func(w, iteration int, ok bool) {
			got = append(got, consumedSample{w, iteration, ok})
		}})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if est != ref.Estimate() {
		t.Errorf("estimate %+v, sequential reference %+v", est, ref.Estimate())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OnSample sequence differs from the sequential interleaving (%d vs %d samples)", len(got), len(want))
	}
	if over := stall.total() - est.Trials; over > k*(runAhead+1) {
		t.Errorf("overdrew %d samples, bound k·(runAhead+1) = %d", over, k*(runAhead+1))
	}
}

// TestRunAheadRunMulti is TestRunAheadRun for the vector collector; the
// rotating buffers must also hand every consumed vector over intact.
func TestRunAheadRunMulti(t *testing.T) {
	const k, cells = 2, 3
	params := stats.Params{Delta: 0.1, Epsilon: 0.05}
	vector := func(w, iteration int, out []bool) {
		for c := range out {
			out[c] = outcome(w, iteration+c)
		}
	}

	ref, err := stats.NewMultiEstimator(stats.MethodChowRobbins, params, cells)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	buf := make([]bool, cells)
	for i := 0; !ref.Done(); i++ {
		vector(i%k, i/k, buf)
		if err := ref.Add(buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprint(i%k, i/k, buf))
	}

	stall := newStallFirst(runAhead + 1)
	me, err := stats.NewMultiEstimator(stats.MethodChowRobbins, params, cells)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	withTimeout(t, func() {
		err = RunMulti(me, func(w, iteration int, out []bool) error {
			stall.gate(w, iteration)
			defer stall.sampled(w)
			vector(w, iteration, out)
			return nil
		}, MultiOptions{Workers: k, OnSample: func(w, iteration int, out []bool) {
			got = append(got, fmt.Sprint(w, iteration, out))
		}})
	})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if !reflect.DeepEqual(me.Estimates(), ref.Estimates()) {
		t.Errorf("estimates %+v, sequential reference %+v", me.Estimates(), ref.Estimates())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OnSample sequence differs from the sequential interleaving (%d vs %d vectors)", len(got), len(want))
	}
	if over := stall.total() - me.Paths(); over > k*(runAhead+1) {
		t.Errorf("overdrew %d vectors, bound k·(runAhead+1) = %d", over, k*(runAhead+1))
	}
}

// TestRunAheadRunFixed: under the same stall RunFixed still returns its
// results ordered by index, reports them in ascending order, and draws
// exactly n.
func TestRunAheadRunFixed(t *testing.T) {
	const k, n = 2, 4 * (runAhead + 1)
	stall := newStallFirst(runAhead + 1)
	var order []int
	var out []int
	var err error
	withTimeout(t, func() {
		out, err = RunFixed(n, func(i int) (int, error) {
			w, iteration := i%k, i/k
			stall.gate(w, iteration)
			defer stall.sampled(w)
			return i * i, nil
		}, FixedOptions{Workers: k, OnResult: func(i int) { order = append(order, i) }})
	})
	if err != nil {
		t.Fatalf("RunFixed: %v", err)
	}
	for i := range out {
		if out[i] != i*i || order[i] != i {
			t.Fatalf("index %d: result %d (want %d), reported %d-th", i, out[i], i*i, order[i])
		}
	}
	if stall.total() != n {
		t.Errorf("drew %d results for n=%d", stall.total(), n)
	}
}
