// Branch sampling: the splitting engine's entry point into the path
// generator. A branch is an ordinary simulation path that starts from a
// caller-supplied state (the entry recorded at a level crossing) instead of
// the initial state, and ends early the moment an importance-level
// threshold is crossed — the crossing state is handed back to the caller
// for the next stage's entry pool. Because every scheduling strategy is
// memoryless (decisions depend only on the current state and the remaining
// horizon) and Markovian delays are exponential, restarting mid-path
// samples exactly the conditional path distribution given the entry state,
// which is what makes the splitting estimator unbiased.
package sim

import (
	"math"

	"slimsim/internal/network"
	"slimsim/internal/rng"
	"slimsim/internal/sta"
)

// LevelFunc maps a location vector to its importance level. It must be
// cheap (it runs once per simulation step) and must not retain the slice.
type LevelFunc func(locs []sta.LocID) int

// SampleBranch simulates one branch from start (nil means the initial
// state) until either the property decides or the importance level of the
// current state reaches target. On promotion the crossing state is copied
// into promoted, which must be a state of the engine's runtime (the copy is
// allocation-free), and the second result is true; the PathResult then
// holds only Steps and EndTime, the crossing time. A target of NoPromotion
// (or a nil level) turns the branch into a plain conditional path that only
// ever decides; from the initial state it is exactly SamplePath. Property
// verdicts win over crossings observed at the same state: a goal state at
// the target level is reported satisfied, not promoted.
func (e *Engine) SampleBranch(src *rng.Source, start *network.State, target int, level LevelFunc, promoted *network.State) (PathResult, bool, error) {
	ps := e.scratch.Get().(*pathScratch)
	defer e.scratch.Put(ps)
	return e.walk(ps, src, start, target, level, promoted)
}

// NoPromotion is the branch target that can never be reached: branches run
// to a verdict, sampling the plain conditional path distribution.
const NoPromotion = math.MaxInt
