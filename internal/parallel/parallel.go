// Package parallel distributes Monte Carlo sampling over worker goroutines
// without biasing the estimate.
//
// Taking samples into account in completion order biases statistical
// results that use data-dependent stopping rules: fast outcomes (e.g. early
// property violations) would be over-represented, and the estimate would
// depend on the number of workers (the paper's §III-C, citing its ref
// [22]). The collector therefore buffers each worker's results and consumes
// them in rounds — one sample from every worker per round — so the sequence
// fed to the Generator is a deterministic interleaving, independent of
// worker timing. For the a-priori Chernoff–Hoeffding bound this caution is
// not strictly needed, but it keeps the engine sound for the sequential
// Chow–Robbins and Gauss generators.
//
// Buffering is what lets the workers overlap: each worker may run up to
// runAhead samples ahead of the collector, so a worker that drew a short
// path goes on sampling while the collector waits for another worker's
// long one. The buffers change when samples are produced, never the order
// in which they are consumed.
package parallel

import (
	"fmt"
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
// generator stops, each of the k workers may have produced up to
// runAhead+1 samples that are never consumed, so a run draws at most
// k·(runAhead+1) paths more than it uses.
const runAhead = 32

// Sampler produces one Bernoulli outcome. worker identifies the calling
// worker (for deriving independent RNG streams) and iteration counts the
// samples this worker has produced. Implementations must be safe for
// concurrent use across distinct workers.
type Sampler func(worker, iteration int) (bool, error)

// sample is one worker result.
type sample struct {
	ok        bool
	err       error
	iteration int
}

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
	k := opts.Workers
	if k < 1 {
		k = 1
	}
	if k == 1 {
		// Sequential fast path, also the reference behavior the
		// parallel path must reproduce.
		for i := 0; !gen.Done(); i++ {
			ok, err := sampler(0, i)
			if err != nil {
				return gen.Estimate(), fmt.Errorf("parallel: worker 0 iteration %d: %w", i, err)
			}
			gen.Add(ok)
			if opts.OnSample != nil {
				opts.OnSample(0, i, ok)
			}
		}
		return gen.Estimate(), nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	chans := make([]chan sample, k)
	for w := 0; w < k; w++ {
		chans[w] = make(chan sample, runAhead)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ok, err := sampler(w, i)
				select {
				case chans[w] <- sample{ok: ok, err: err, iteration: i}:
					if err != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}(w)
	}

	// One sample from every worker per round, in worker order, each
	// consumed as soon as it is received: the collector never holds a
	// received sample it does not use, and an error counts only when its
	// sample's turn comes, exactly as in the sequential reference.
	var runErr error
	for w := 0; !gen.Done(); w = (w + 1) % k {
		s := <-chans[w]
		if s.err != nil {
			runErr = fmt.Errorf("parallel: worker %d iteration %d: %w", w, s.iteration, s.err)
			break
		}
		gen.Add(s.ok)
		if opts.OnSample != nil {
			opts.OnSample(w, s.iteration, s.ok)
		}
	}
	close(stop)
	// Workers blocked on a full buffer observe the closed stop channel in
	// their send select and exit; samples left in the buffers are dropped
	// unconsumed, and no draining is required.
	wg.Wait()
	return gen.Estimate(), runErr
}
