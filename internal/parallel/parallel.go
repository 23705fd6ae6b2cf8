// Package parallel distributes Monte Carlo sampling over worker goroutines
// without biasing the estimate.
//
// Taking samples into account in completion order biases statistical
// results that use data-dependent stopping rules: fast outcomes (e.g. early
// property violations) would be over-represented, and the estimate would
// depend on the number of workers (the paper's §III-C, citing its ref
// [22]). The collector therefore buffers each worker's results and consumes
// them in rounds — one sample from every worker per round — so the sequence
// fed to the estimator is a deterministic interleaving, independent of
// worker timing. For the a-priori Chernoff–Hoeffding bound this caution is
// not strictly needed, but it keeps the engine sound for the sequential
// Chow–Robbins, Gauss and relative-error generators.
//
// Buffering is what lets the workers overlap: each worker may run up to
// runAhead samples ahead of the collector, so a worker that drew a short
// path goes on sampling while the collector waits for another worker's
// long one. The buffers change when samples are produced, never the order
// in which they are consumed.
//
// One loop, fanOut, implements all of this. RunMulti feeds it per-path
// outcome vectors for a stats.MultiEstimator (the sampling pipeline of
// single-bound runs and sweeps alike), Run feeds it scalar outcomes for a
// stats.Generator, and RunFixed draws a fixed number of indexed results
// for the splitting engine.
package parallel

import (
	"fmt"
	"math"
	"sync"

	"slimsim/internal/stats"
)

// runAhead is the capacity of each worker's result channel: how many
// finished samples a worker may hold beyond the one the collector is
// receiving before it blocks. Chosen by measurement on the Table I
// simulator benchmark (perfbench table1-sim: sensor filter N=3/5/7,
// workers=2, paths differing in length by an order of magnitude; two
// 30 s runs per value on a 2-vCPU Intel Xeon host): p90 latency was
// 116–126 ms at capacity 1, 116–122 ms at 8, 115–152 ms at 16,
// 105–108 ms at 32 and 110–111 ms at 64. The cost is overdraw: when the
// estimator stops, each of the k workers may have produced up to
// runAhead+1 samples that are never consumed, so a run draws at most
// k·(runAhead+1) paths more than it uses.
const runAhead = 32

// fanOut is the worker/collector loop. Worker w produces its items in
// iteration order i = 0, 1, … into slots of its own ring, and the collector
// consumes one item per worker per round, in worker order: the t-th
// consumed item is iteration t/k of worker t%k. Collection stops after n
// items or as soon as done reports true; no worker produces an item whose
// position t = w + i·k is n or more. The first produce or consume error
// aborts the run, and a produce error counts only when its item's turn
// comes, exactly as in the sequential reference (k = 1, no goroutines).
//
// consume must be done with the slot when it returns: the worker refills
// it later. With k workers the loop starts min(k, n) goroutines.
func fanOut[T any](k, n int, produce func(w, i int, slot *T) error, done func() bool, consume func(w, i int, slot *T) error) error {
	k = max(1, min(k, n))
	if k == 1 {
		// Sequential fast path, also the reference behavior the parallel
		// path must reproduce.
		var slot T
		for i := 0; i < n && !done(); i++ {
			if err := produce(0, i, &slot); err != nil {
				return fmt.Errorf("parallel: worker 0 iteration %d: %w", i, err)
			}
			if err := consume(0, i, &slot); err != nil {
				return err
			}
		}
		return nil
	}

	type item struct {
		slot      *T
		err       error
		iteration int
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	chans := make([]chan item, k)
	for w := range chans {
		chans[w] = make(chan item, runAhead)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// runAhead+2 ring slots make reuse safe without a return
			// channel. With capacity C = runAhead, the collector's
			// receive of item j happens before the send of j+C completes
			// (Go memory model, buffered channels). The worker reuses
			// the slot of iteration i at iteration i+C+2, after its send
			// of i+C+1 completed, so after the collector received i+1 —
			// and the collector is done with item i before it receives
			// i+1 from the same worker.
			ring := make([]T, runAhead+2)
			for i := 0; w+i*k < n; i++ {
				select {
				case <-stop:
					return
				default:
				}
				slot := &ring[i%len(ring)]
				err := produce(w, i, slot)
				select {
				case chans[w] <- item{slot: slot, err: err, iteration: i}:
					if err != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}(w)
	}

	// Each item is consumed as soon as it is received: the collector never
	// holds a received item it does not use.
	var runErr error
	for t := 0; t < n && !done(); t++ {
		w := t % k
		it := <-chans[w]
		if it.err != nil {
			runErr = fmt.Errorf("parallel: worker %d iteration %d: %w", w, it.iteration, it.err)
			break
		}
		if err := consume(w, it.iteration, it.slot); err != nil {
			runErr = err
			break
		}
	}
	close(stop)
	// Workers blocked on a full buffer observe the closed stop channel in
	// their send select and exit; items left in the buffers are dropped
	// unconsumed, and no draining is required.
	wg.Wait()
	return runErr
}

// never is the done function of a run that stops only at its item count.
func never() bool { return false }

// Sampler produces one Bernoulli outcome. worker identifies the calling
// worker (for deriving independent RNG streams) and iteration counts the
// samples this worker has produced. Implementations must be safe for
// concurrent use across distinct workers.
type Sampler func(worker, iteration int) (bool, error)

// Options configures a Run.
type Options struct {
	// Workers is the number of concurrent sampling goroutines
	// (minimum 1).
	Workers int
	// OnSample, when non-nil, is invoked for every sample the generator
	// actually consumes — immediately after the corresponding gen.Add,
	// in consumption order, from the collecting goroutine. worker and
	// iteration identify the sampler call that produced the outcome.
	// Samples that workers overdraw past the stopping point are never
	// reported, which is what keeps consumers (e.g. the telemetry
	// collector) deterministic for a fixed seed and worker count.
	OnSample func(worker, iteration int, ok bool)
}

// Run draws samples with k workers and feeds them into gen in fair rounds
// until gen.Done(). It returns the final estimate. The first sampler error
// aborts the run.
func Run(gen stats.Generator, sampler Sampler, opts Options) (stats.Estimate, error) {
	err := fanOut(opts.Workers, math.MaxInt, func(w, i int, ok *bool) (err error) {
		*ok, err = sampler(w, i)
		return err
	}, gen.Done, func(w, i int, ok *bool) error {
		gen.Add(*ok)
		if opts.OnSample != nil {
			opts.OnSample(w, i, *ok)
		}
		return nil
	})
	return gen.Estimate(), err
}

// VectorSampler produces one path's outcome vector into out, whose length
// is the cell count. worker and iteration have the same meaning as in
// Sampler. Implementations must be safe for concurrent use across
// distinct workers and must not retain out.
type VectorSampler func(worker, iteration int, out []bool) error

// MultiOptions configures a RunMulti.
type MultiOptions struct {
	// Workers is the number of concurrent sampling goroutines
	// (minimum 1).
	Workers int
	// OnSample, when non-nil, is invoked for every vector the estimator
	// actually consumes — immediately after the corresponding Add, in
	// consumption order, from the collecting goroutine. outcomes is only
	// valid during the call.
	OnSample func(worker, iteration int, outcomes []bool)
}

// RunMulti draws outcome vectors (one Bernoulli verdict per (property,
// bound) cell of a path) with k workers and feeds them into me in fair
// rounds until me.Done() (every cell converged), so the per-cell
// estimates are a pure function of the sampler and the worker count. The
// first sampler error aborts the run. Each worker's vectors live in its
// ring slots, allocated on first use: the steady-state fan-out performs
// zero per-path heap allocations.
func RunMulti(me *stats.MultiEstimator, sampler VectorSampler, opts MultiOptions) error {
	cells := me.Cells()
	return fanOut(opts.Workers, math.MaxInt, func(w, i int, out *[]bool) error {
		if *out == nil {
			*out = make([]bool, cells)
		}
		return sampler(w, i, *out)
	}, me.Done, func(w, i int, out *[]bool) error {
		if err := me.Add(*out); err != nil {
			return err
		}
		if opts.OnSample != nil {
			opts.OnSample(w, i, *out)
		}
		return nil
	})
}

// FixedOptions configures a RunFixed.
type FixedOptions struct {
	// Workers is the number of concurrent goroutines (minimum 1).
	Workers int
	// OnResult, when non-nil, is invoked for every collected result in
	// consumption order — ascending global index — from the collecting
	// goroutine. Splitting telemetry commits stage outcomes through it.
	OnResult func(index int)
}

// RunFixed evaluates sample(0), …, sample(n-1) with k workers and returns
// the results ordered by index: the splitting engine's fixed-effort stage,
// with no data-dependent stopping rule and so no overdraw. Worker w owns
// indices w, w+k, w+2k, …, so consuming one result per worker per round,
// in worker order, is consuming in ascending index. sample receives the
// global index only, so a caller that derives its randomness from the
// index gets results that are invariant under the worker count, not merely
// deterministic for a fixed one. The first error aborts the run.
func RunFixed[T any](n int, sample func(index int) (T, error), opts FixedOptions) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	k := max(1, min(opts.Workers, n))
	out := make([]T, n)
	err := fanOut(k, n, func(w, i int, v *T) (err error) {
		*v, err = sample(w + i*k)
		return err
	}, never, func(w, i int, v *T) error {
		idx := w + i*k
		out[idx] = *v
		if opts.OnResult != nil {
			opts.OnResult(idx)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
