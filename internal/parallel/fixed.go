// Fixed-count fan-out: the splitting engine's counterpart of Run. A
// splitting stage draws a fixed number of branches (the per-level effort),
// so there is no data-dependent stopping rule and no overdraw — but the
// determinism requirement is the same as for Run: the stage's outcome must
// be a pure function of (model, property, seed), independent of worker
// timing and worker count. RunFixed achieves that by keying each branch on
// its global index: worker w owns indices w, w+k, w+2k, … and the collector
// consumes one result per worker per round, in worker order — exactly
// ascending global index — so consumers observe a deterministic sequence
// and the result slice is ordered by index regardless of scheduling.
// Workers may run up to runAhead results ahead of the collector, as in Run;
// with a fixed n nothing is ever overdrawn.
package parallel

import (
	"fmt"
	"sync"
)

// FixedOptions configures a RunFixed.
type FixedOptions struct {
	// Workers is the number of concurrent goroutines (minimum 1).
	Workers int
	// OnResult, when non-nil, is invoked for every collected result in
	// consumption order — ascending global index — from the collecting
	// goroutine. Splitting telemetry commits stage outcomes through it.
	OnResult func(index int)
}

// fixedResult is one indexed worker result.
type fixedResult[T any] struct {
	val T
	err error
	idx int
}

// RunFixed evaluates sample(0), …, sample(n-1) with k workers and returns
// the results ordered by index. sample receives the global index only, so a
// caller that derives its randomness from the index gets results that are
// invariant under the worker count, not merely deterministic for a fixed
// one. The first error aborts the run and is returned with its index.
func RunFixed[T any](n int, sample func(index int) (T, error), opts FixedOptions) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	k := opts.Workers
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]T, n)
	if k == 1 {
		// Sequential fast path, also the reference behavior the parallel
		// path must reproduce.
		for i := 0; i < n; i++ {
			v, err := sample(i)
			if err != nil {
				return nil, fmt.Errorf("parallel: index %d: %w", i, err)
			}
			out[i] = v
			if opts.OnResult != nil {
				opts.OnResult(i)
			}
		}
		return out, nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	chans := make([]chan fixedResult[T], k)
	for w := 0; w < k; w++ {
		chans[w] = make(chan fixedResult[T], runAhead)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += k {
				select {
				case <-stop:
					return
				default:
				}
				v, err := sample(i)
				select {
				case chans[w] <- fixedResult[T]{val: v, err: err, idx: i}:
					if err != nil {
						return
					}
				case <-stop:
					return
				}
			}
		}(w)
	}

	var runErr error
collect:
	for i := 0; i < n; i++ {
		// Index i was produced by worker i%k; consuming in index order is
		// consuming one result per worker per round, in worker order.
		r := <-chans[i%k]
		if r.err != nil {
			runErr = fmt.Errorf("parallel: index %d: %w", r.idx, r.err)
			break collect
		}
		out[r.idx] = r.val
		if opts.OnResult != nil {
			opts.OnResult(r.idx)
		}
	}
	close(stop)
	// Workers blocked on a full buffer observe the closed stop channel in
	// their send select and exit; no draining is required.
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}
