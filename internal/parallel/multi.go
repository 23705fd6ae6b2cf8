// Vector fan-out: the sweep analogue of Run. One sampled path yields a
// whole outcome vector (one Bernoulli verdict per (property, bound)
// cell), and the collector feeds the vectors to a stats.MultiEstimator
// under the same fair-round discipline as Run — so sweep estimates are a
// pure function of (model, property, seed, worker count), independent of
// worker timing.
package parallel

import (
	"fmt"
	"sync"

	"slimsim/internal/stats"
)

// VectorSampler produces one path's outcome vector into out, whose length
// is the cell count. worker and iteration have the same meaning as in
// Sampler. Implementations must be safe for concurrent use across
// distinct workers and must not retain out.
type VectorSampler func(worker, iteration int, out []bool) error

// vecSample is one worker result; out aliases one of the worker's
// rotating buffers and stays valid only until the collector's next receive
// from the same worker.
type vecSample struct {
	out       []bool
	err       error
	iteration int
}

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

// RunMulti draws outcome vectors with k workers and feeds them into me in
// fair rounds until me.Done() (every cell converged). The first sampler
// error aborts the run. Workers run ahead of the collector exactly as in
// Run. All buffers are allocated up front: the steady-state fan-out
// performs zero per-path heap allocations.
func RunMulti(me *stats.MultiEstimator, sampler VectorSampler, opts MultiOptions) error {
	k := opts.Workers
	if k < 1 {
		k = 1
	}
	cells := me.Cells()
	if k == 1 {
		// Sequential fast path, also the reference behavior the
		// parallel path must reproduce.
		buf := make([]bool, cells)
		for i := 0; !me.Done(); i++ {
			if err := sampler(0, i, buf); err != nil {
				return fmt.Errorf("parallel: worker 0 iteration %d: %w", i, err)
			}
			if err := me.Add(buf); err != nil {
				return err
			}
			if opts.OnSample != nil {
				opts.OnSample(0, i, buf)
			}
		}
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	chans := make([]chan vecSample, k)
	for w := 0; w < k; w++ {
		chans[w] = make(chan vecSample, runAhead)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// runAhead+2 rotating buffers make reuse safe without a
			// return channel. With capacity C = runAhead, the
			// collector's receive of vector j happens before the send of
			// j+C completes (Go memory model, buffered channels). The
			// worker reuses the buffer of iteration i at iteration
			// i+C+2, after its send of i+C+1 completed, so after the
			// collector received i+1 — and the collector is done with
			// vector i (Add and OnSample) before it receives i+1 from
			// the same worker.
			bufs := make([][]bool, runAhead+2)
			for b := range bufs {
				bufs[b] = make([]bool, cells)
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf := bufs[i%len(bufs)]
				err := sampler(w, i, buf)
				select {
				case chans[w] <- vecSample{out: buf, err: err, iteration: i}:
					if err != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}(w)
	}

	// Consumption as in Run: one vector per worker per round, in worker
	// order, each used on receipt straight from the worker's buffer.
	var runErr error
	for w := 0; !me.Done(); w = (w + 1) % k {
		s := <-chans[w]
		if s.err != nil {
			runErr = fmt.Errorf("parallel: worker %d iteration %d: %w", w, s.iteration, s.err)
			break
		}
		if err := me.Add(s.out); err != nil {
			runErr = err
			break
		}
		if opts.OnSample != nil {
			opts.OnSample(w, s.iteration, s.out)
		}
	}
	close(stop)
	// Workers blocked on a full buffer observe the closed stop channel in
	// their send select and exit; no draining is required.
	wg.Wait()
	return runErr
}
