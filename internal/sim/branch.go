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
	"fmt"
	"math"

	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/sta"
)

// LevelFunc maps a location vector to its importance level. It must be
// cheap (it runs once per simulation step) and must not retain the slice.
type LevelFunc func(locs []sta.LocID) int

// BranchOutcome classifies how a branch ended.
type BranchOutcome int

// Branch outcomes.
const (
	// BranchPromoted means the branch crossed the target level with the
	// property still undecided; the crossing state was copied out.
	BranchPromoted BranchOutcome = iota + 1
	// BranchSatisfied means the property decided Satisfied on the branch.
	BranchSatisfied
	// BranchDead means the property decided Violated (including lock
	// policies that falsify) before any crossing.
	BranchDead
)

// String returns the outcome's name.
func (o BranchOutcome) String() string {
	switch o {
	case BranchPromoted:
		return "promoted"
	case BranchSatisfied:
		return "satisfied"
	case BranchDead:
		return "dead"
	default:
		return "invalid"
	}
}

// BranchResult is the outcome of one splitting branch.
type BranchResult struct {
	// Outcome classifies the branch.
	Outcome BranchOutcome
	// Steps counts the simulation steps the branch took.
	Steps int
	// EndTime is the model time at which the branch ended (the crossing
	// time for promoted branches).
	EndTime float64
	// Termination is set for decided branches, as in PathResult.
	Termination Termination
}

// SampleBranch simulates one branch from start (nil means the initial
// state) until either the property decides or the importance level of the
// current state reaches target. On promotion the crossing state is copied
// into promoted, which must be a state of the engine's runtime (the copy is
// allocation-free); a target of math.MaxInt turns the branch into a plain
// conditional path that only ever decides. Property verdicts win over
// crossings observed at the same state: a goal state at the target level
// reports BranchSatisfied, not BranchPromoted.
func (e *Engine) SampleBranch(src *rng.Source, start *network.State, target int, level LevelFunc, promoted *network.State) (BranchResult, error) {
	ps := e.scratch.Get().(*pathScratch)
	res := BranchResult{}
	defer func() {
		e.stats.steps.Add(int64(res.Steps))
		e.scratch.Put(ps)
	}()

	cur, nxt := &ps.stA, &ps.stB
	if start == nil {
		if err := ps.net.InitialStateInto(cur); err != nil {
			return BranchResult{}, err
		}
	} else {
		cur.CopyFrom(start)
	}
	// The pooled arena's cache may still describe the previous path.
	ps.guards.Reset()

	// pr receives the per-step verdict bookkeeping exactly as in
	// SamplePath, so DecidedAt/Termination semantics stay identical.
	pr := PathResult{Steps: res.Steps}
	verdict, err := e.eval.AtState(ps.net.Env(cur), cur.Time)
	if err != nil {
		return BranchResult{}, err
	}
	for verdict == prop.Undecided {
		// A crossing can only be observed while the property is still
		// undecided — verdicts take precedence at the same state. The
		// entry state itself may already sit at or above the target when
		// thresholds are merged or a synchronized move jumps levels.
		if level(cur.Locs) >= target {
			promoted.CopyFrom(cur)
			res.Outcome = BranchPromoted
			res.EndTime = cur.Time
			return res, nil
		}
		if pr.Steps >= e.cfg.MaxSteps {
			return BranchResult{}, fmt.Errorf("sim: branch exceeded %d steps at time %g (Zeno or divergent model?)",
				e.cfg.MaxSteps, cur.Time)
		}
		pr.Steps++
		res.Steps++

		var newCur *network.State
		verdict, newCur, err = e.step(ps, cur, nxt, src, &pr)
		if err != nil {
			return BranchResult{}, err
		}
		if newCur != cur {
			cur, nxt = newCur, cur
		}
	}
	if verdict == prop.Satisfied {
		res.Outcome = BranchSatisfied
	} else {
		res.Outcome = BranchDead
	}
	res.Termination = pr.Termination
	if res.Termination == 0 {
		res.Termination = TermDecided
	}
	res.EndTime = cur.Time
	return res, nil
}

// NoPromotion is the branch target that can never be reached: branches run
// to a verdict, sampling the plain conditional path distribution.
const NoPromotion = math.MaxInt
