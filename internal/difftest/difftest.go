// Package difftest is the differential-testing harness: it pushes models
// from modelgen through a hierarchy of oracles of increasing strength and
// reports any disagreement as a Discrepancy.
//
// The oracle hierarchy, in the order Check runs it:
//
//  1. lint        — generated models carry no diagnostics, warnings
//     included; a diagnostic means generator and analyzer disagree about
//     well-formedness.
//  2. roundtrip   — print -> parse -> print is a fixed point, so the
//     surface syntax, parser and printer agree on every construct the
//     generator emits.
//  3. absint      — the abstract-interpretation pass must be transparent:
//     simulating with statically dead transitions pruned produces traces
//     bit-identical to the unpruned model, and a static 0/1 verdict, when
//     one is reached, must agree with the generation-time verdict and
//     with the exact CTMC/zone probabilities of the later tiers.
//  4. strategies  — on the deterministic class every scheduling strategy
//     must realize the same behavior: ASAP, MaxTime and Progressive
//     produce the identical trace, Local reaches the same verdict, the
//     verdict equals the one computed at generation time, and replaying
//     the schedule decision-by-decision through the Input strategy
//     reproduces the trace.
//  5. exact       — on the Markovian class the Monte Carlo estimate must
//     fall inside the Chernoff band around the exact CTMC transient
//     probability, and the unlumped chain, the bisimulation quotient and
//     the public CheckCTMC pipeline must agree to solver precision. The
//     zone analyzer must reproduce the CTMC answer too (the untimed
//     fragment is a one-segment special case of the single-clock one).
//  6. zone        — on the single-clock timed class zone.Analyze is the
//     exact reference: the Monte Carlo estimate under the ASAP strategy
//     must fall inside the same Chernoff band around the zone-exact
//     probability, closing the timed-sampling blind spot the
//     strategy-agreement oracle alone leaves open.
//  7. splitting   — on every class with an exact reference (Markovian,
//     single-clock, rare-event) the importance-splitting estimator must
//     land inside a *relative*-error band around the exact probability,
//     which stays meaningful down to P ≈ 1e-6 and below where any
//     absolute band is vacuous. On the rare-event class the plain Monte
//     Carlo band check is explicitly skipped — mcEpsilon swallows every
//     rare probability, so it would assert nothing — and the degenerate
//     single-level splitting run must instead reproduce the plain Monte
//     Carlo estimate bit for bit on the same seed.
//  8. symmetry    — on the symmetric replica class the counter-abstraction
//     pipeline is exercised end to end: the detector must certify at
//     least one replica group (the generator builds models symmetric by
//     construction, so a missed group is a detector bug), the quotient
//     chain lumped must agree with the explicit chain lumped to 1e-12,
//     and the public CheckCTMC must give the same probability with and
//     without the fast path. Above the explicit ceiling the quotient is
//     the only exact oracle; this tier is what licenses trusting it
//     there.
//
// The unrestricted timed class has no exact reference; there the engine
// itself is the oracle: no strategy may trip an internal engine invariant
// (ErrEngine) on any sampled path.
package difftest

import (
	"errors"
	"fmt"
	"math"

	"slimsim"
	"slimsim/internal/bisim"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/lint"
	"slimsim/internal/model"
	"slimsim/internal/modelgen"
	"slimsim/internal/network"
	"slimsim/internal/slim"
	"slimsim/internal/symmetry"
	"slimsim/internal/zone"
)

// Tolerances and sampling parameters of the exact-analysis oracle.
const (
	// mcEpsilon / mcDelta parameterize the Chernoff bound of the Monte
	// Carlo run; the estimate must land within mcEpsilon of the exact
	// probability except with probability mcDelta. Runs are seeded and
	// single-worker, so a passing (class, seed) pair passes forever.
	mcEpsilon = 0.05
	mcDelta   = 1e-3
	// solverTol bounds the disagreement allowed between the unlumped
	// chain, the lumped quotient and the CheckCTMC pipeline, all of
	// which truncate uniformization at a 1e-10 tail.
	solverTol = 1e-7
	// maxStates caps explicit state-space construction.
	maxStates = 1 << 18
	// symTol bounds the disagreement between the lumped quotient and the
	// lumped explicit chain on the symmetric class. Both are solved with a
	// 1e-13 uniformization tail (symTail) — tighter than the default
	// 1e-10, which would swamp the claim — and lump to isomorphic chains,
	// so agreement holds to the last few ulps.
	symTol  = 1e-12
	symTail = 1e-13
	// timedPaths is the number of paths sampled per strategy on the
	// timed class.
	timedPaths = 4
	// splitEffort / rareEffort are the branches-per-stage budgets of the
	// splitting oracle: modest on the broad Markovian and single-clock
	// corpora, larger on the rare-event class where the estimate must
	// stay inside a relative band around probabilities down to 1e-9.
	splitEffort = 256
	rareEffort  = 1024
	// splitRareRuns is the number of independently seeded splitting runs
	// averaged on the rare-event class before applying the relative band:
	// the band is a claim about the estimator's mean, and a single run's
	// relative variance compounds across stages at probabilities near 1e-9.
	// The runs also supply the empirical spread that widens the band on
	// the rarest models (see checkSplitting). splitRuns is the cheaper
	// count used on the broad Markovian and single-clock corpora, where
	// the absolute Chernoff band provides a second acceptance route.
	splitRareRuns = 5
	splitRuns     = 3
	// Below splitDeepExact the estimator's per-run distribution is so
	// right-skewed (a few huge overshoots balance many undershoots) that
	// the mean of splitRareRuns runs sits a factor — not a fraction —
	// away from the truth with non-negligible probability, so the band
	// relaxes to agreement within splitDeepFactor. At P < 1e-6 plain
	// Monte Carlo reports exactly zero, so even a factor-4 agreement is
	// a sharp oracle claim.
	splitDeepExact  = 1e-6
	splitDeepFactor = 4.0
	// splitRelBand bounds the relative error of the splitting estimate
	// against the exact reference. Runs are seeded and single-worker, so
	// a passing (class, seed) pair passes forever; the band absorbs the
	// estimator's variance at the committed efforts.
	splitRelBand = 0.5
)

// Strategies lists every automated scheduling strategy, in the order the
// oracles exercise them.
var Strategies = []string{"asap", "maxtime", "progressive", "local"}

// Discrepancy reports one oracle failure on one generated model.
type Discrepancy struct {
	// Class and Seed identify the failing model: Generate(Class, Seed)
	// reproduces it.
	Class modelgen.Class
	Seed  uint64
	// Oracle names the oracle that failed: load, lint, roundtrip, goal,
	// absint, strategies, exact, zone, splitting, symmetry, engine or
	// simulate. goal means the property's goal does not resolve against
	// the loaded model; engine means an internal engine invariant tripped
	// (slimsim.ErrEngine), whichever check hit it; simulate means the
	// timed-class run failed with an ordinary error.
	Oracle string
	// Detail describes the disagreement.
	Detail string
	// Source is the failing model's source (possibly shrunk).
	Source string
	// Goal and Bound are the property under which the oracle failed.
	Goal  string
	Bound float64
	// KnownVerdict and Satisfied carry the generation-time verdict of
	// the deterministic class through shrinking.
	KnownVerdict bool
	Satisfied    bool
	// ReproPath is set by the harness once a shrunk reproducer has been
	// written to the regression corpus.
	ReproPath string
}

// Error implements error, naming seed and oracle as the report header.
func (d *Discrepancy) Error() string {
	s := fmt.Sprintf("difftest: %s/%d: oracle %s: %s", d.Class, d.Seed, d.Oracle, d.Detail)
	if d.ReproPath != "" {
		s += " (reproducer: " + d.ReproPath + ")"
	}
	return s
}

// Check runs every oracle applicable to g's class and returns the first
// discrepancy, or nil when all oracles agree.
func Check(g *modelgen.Generated) *Discrepancy {
	fail := func(oracle, format string, args ...any) *Discrepancy {
		return &Discrepancy{
			Class: g.Class, Seed: g.Seed,
			Oracle: oracle, Detail: fmt.Sprintf(format, args...),
			Source: g.Source, Goal: g.Goal, Bound: g.Bound,
			KnownVerdict: g.KnownVerdict, Satisfied: g.Satisfied,
		}
	}
	if diags := withoutAbsintWarnings(lint.RunSource(g.Source)); len(diags) != 0 {
		return fail("lint", "%d diagnostics, first: %s", len(diags), diags[0].Render("model"))
	}
	parsed, err := slim.Parse(g.Source)
	if err != nil {
		return fail("roundtrip", "source does not parse: %v", err)
	}
	if again := slim.Print(parsed); again != g.Source {
		return fail("roundtrip", "print/parse/print is not a fixed point")
	}
	m, err := slimsim.LoadModel(g.Source)
	if err != nil {
		return fail("load", "lint-clean model fails to load: %v", err)
	}
	// Resolve the goal before any oracle runs, so a model that lost the
	// goal's variables fails here under one name, not under whichever
	// oracle happens to compile the goal first.
	if _, err := m.CompileProperty(opts(g, "", 0)); err != nil {
		return fail("goal", "goal %q: %v", g.Goal, err)
	}
	if d := checkAbsint(g, m, fail); d != nil {
		return d
	}
	switch g.Class {
	case modelgen.Deterministic:
		return checkStrategies(g, m, fail)
	case modelgen.Markovian:
		return checkExact(g, m, fail)
	case modelgen.SingleClockTimed:
		return checkZone(g, m, fail)
	case modelgen.RareEvent:
		return checkRare(g, m, fail)
	case modelgen.Symmetric:
		return checkSymmetric(g, m, fail)
	default:
		return checkEngine(g, m, fail)
	}
}

// withoutAbsintWarnings drops the SL306/SL307 warnings from a lint run.
// The generator promises syntactically clean models, not models free of
// semantically dead constructs, so those two codes are no
// generator/analyzer disagreement — and their soundness is checked
// directly by the absint oracle below instead.
func withoutAbsintWarnings(diags []lint.Diag) []lint.Diag {
	out := diags[:0]
	for _, d := range diags {
		if d.Severity == lint.SevWarning && (d.Code == "SL306" || d.Code == "SL307") {
			continue
		}
		out = append(out, d)
	}
	return out
}

// checkAbsint is the soundness tier of the abstract-interpretation pass,
// run on every class before the exact oracles:
//
//   - pruning transparency: simulating the default-loaded model (with
//     statically dead transitions pruned from move enumeration) must
//     produce bit-identical traces to the unpruned model under every
//     strategy — pruned moves contributed nothing, so no random-number
//     draw and no uniform pick may shift;
//   - static-verdict consistency: when CheckStatic decides the property
//     exactly, the verdict must match the generation-time verdict on the
//     deterministic class (a single schedule, so P ∈ {0,1} must agree
//     with the known path).
//
// The Markovian and single-clock classes additionally compare the static
// verdict against the exact CTMC/zone probability in their own oracles.
func checkAbsint(g *modelgen.Generated, m *slimsim.Model, fail failf) *Discrepancy {
	plain, err := slimsim.LoadModel(g.Source, slimsim.WithoutPruning())
	if err != nil {
		return fail("absint", "model loads pruned but not unpruned: %v", err)
	}
	for _, strat := range Strategies {
		pruned, perr := m.Simulate(opts(g, strat, g.Seed+1), timedPaths)
		full, ferr := plain.Simulate(opts(g, strat, g.Seed+1), timedPaths)
		if (perr == nil) != (ferr == nil) {
			return fail("absint", "%s: pruned error %v, unpruned error %v", strat, perr, ferr)
		}
		if perr != nil {
			continue // both fail the same way; the engine oracle owns it
		}
		for i := range pruned {
			if !sameTrace(pruned[i], full[i]) {
				return fail("absint", "%s path %d: pruning changed the trace:\npruned:\n%s\nunpruned:\n%s",
					strat, i, renderTrace(pruned[i]), renderTrace(full[i]))
			}
		}
	}
	if g.KnownVerdict {
		rep, err := m.CheckStatic(opts(g, "", 0))
		if err != nil {
			return fail("goal", "CheckStatic: %v", err)
		}
		if rep.Decided {
			want := 0.0
			if g.Satisfied {
				want = 1.0
			}
			if rep.Probability != want {
				return fail("absint", "static verdict P=%g (%s) contradicts the generation-time verdict %v",
					rep.Probability, rep.Reason, g.Satisfied)
			}
		}
	}
	return nil
}

// staticVsExact cross-checks the static 0/1 verdict, when one exists,
// against an exact reference probability: absint claiming "unreachable"
// (P=0) while the CTMC or zone analysis proves P > 0 would be a soundness
// bug in the abstract interpreter.
func staticVsExact(g *modelgen.Generated, m *slimsim.Model, exact float64, fail failf) *Discrepancy {
	rep, err := m.CheckStatic(opts(g, "", 0))
	if err != nil {
		return fail("load", "CheckStatic: %v", err)
	}
	if !rep.Decided {
		return nil
	}
	if math.Abs(rep.Probability-exact) > solverTol {
		return fail("absint", "static verdict P=%g (%s) disagrees with the exact probability %.10f",
			rep.Probability, rep.Reason, exact)
	}
	return nil
}

// opts returns the base analysis options for g under the given strategy.
func opts(g *modelgen.Generated, strat string, seed uint64) slimsim.Options {
	return slimsim.Options{
		Goal:     g.Goal,
		Bound:    g.Bound,
		Strategy: strat,
		Seed:     seed,
	}
}

// checkStrategies is oracle level 3: on the deterministic class every
// strategy must agree with the known verdict, the three deadline-driven
// strategies must produce the identical trace, and replaying the schedule
// through the Input strategy must reproduce it.
func checkStrategies(g *modelgen.Generated, m *slimsim.Model, fail failf) *Discrepancy {
	traces := map[string]slimsim.PathTrace{}
	for _, strat := range Strategies {
		tr, err := m.Simulate(opts(g, strat, 1), 1)
		if err != nil {
			return engineOr(fail, "strategies", "%s: %v", strat, err)
		}
		traces[strat] = tr[0]
		if tr[0].Satisfied != g.Satisfied {
			return fail("strategies", "%s verdict %v, generation-time verdict %v",
				strat, tr[0].Satisfied, g.Satisfied)
		}
	}
	for _, strat := range []string{"maxtime", "progressive"} {
		if !sameTrace(traces["asap"], traces[strat]) {
			return fail("strategies", "asap and %s traces differ:\nasap:\n%s\n%s:\n%s",
				strat, renderTrace(traces["asap"]), strat, renderTrace(traces[strat]))
		}
	}
	// Replay: feed every decision explicitly — wait out the invariant
	// deadline, then fire whatever is enabled. On this class that is the
	// unique schedule, so the Input strategy must recover the same trace
	// through a different code path.
	replay, err := m.SimulateInteractive(opts(g, "", 1), func(p slimsim.Prompt) (slimsim.Decision, error) {
		if math.IsInf(p.MaxDelay, 1) {
			return slimsim.Decision{}, fmt.Errorf("unbounded delay before the property decided")
		}
		return slimsim.Decision{Delay: p.MaxDelay, Move: -1}, nil
	})
	if err != nil {
		return engineOr(fail, "strategies", "replay: %v", err)
	}
	if !sameTrace(traces["asap"], replay) {
		return fail("strategies", "replayed trace differs from asap:\nasap:\n%s\nreplay:\n%s",
			renderTrace(traces["asap"]), renderTrace(replay))
	}
	return nil
}

// checkExact is oracle level 4: on the Markovian class the exact CTMC
// pipeline is the reference. The unlumped chain and its bisimulation
// quotient must agree to solver precision with CheckCTMC, and the Monte
// Carlo estimate must fall inside the Chernoff band around the exact
// probability.
func checkExact(g *modelgen.Generated, m *slimsim.Model, fail failf) *Discrepancy {
	exact, err := m.CheckCTMC(g.Goal, g.Bound, maxStates)
	if err != nil {
		return engineOr(fail, "exact", "CheckCTMC: %v", err)
	}
	if d := staticVsExact(g, m, exact.Probability, fail); d != nil {
		return d
	}
	// Rebuild the chain through the internal pipeline to compare the
	// unlumped and lumped answers independently of CheckCTMC.
	rt, goal, d := rebuild(g, "exact", fail)
	if d != nil {
		return d
	}
	br, err := ctmc.Build(rt, goal, maxStates)
	if err != nil {
		return engineOr(fail, "exact", "ctmc build: %v", err)
	}
	praw, err := br.Chain.ReachWithin(g.Bound, 1e-10)
	if err != nil {
		return fail("exact", "unlumped solve: %v", err)
	}
	lumped, err := bisim.Lump(br.Chain)
	if err != nil {
		return fail("exact", "lump: %v", err)
	}
	plump, err := lumped.Quotient.ReachWithin(g.Bound, 1e-10)
	if err != nil {
		return fail("exact", "lumped solve: %v", err)
	}
	if diff := math.Abs(praw - plump); diff > solverTol {
		return fail("exact", "unlumped chain (%d states) gives %.10f, quotient (%d blocks) gives %.10f (diff %.2e)",
			br.Chain.NumStates(), praw, lumped.Blocks, plump, diff)
	}
	if diff := math.Abs(plump - exact.Probability); diff > solverTol {
		return fail("exact", "internal pipeline gives %.10f, CheckCTMC gives %.10f (diff %.2e)",
			plump, exact.Probability, diff)
	}
	// Markovian models are clock-free, hence trivially single-clock
	// eligible: the zone analyzer must reproduce the CTMC answer as a
	// degenerate one-segment run.
	if zerr := zone.Eligible(rt, goal); zerr == nil {
		zr, err := zone.Analyze(rt, goal, g.Bound, maxStates)
		if err != nil {
			return engineOr(fail, "exact", "zone analyze: %v", err)
		}
		if diff := math.Abs(zr.Probability - exact.Probability); diff > solverTol {
			return fail("exact", "zone analyzer gives %.10f, CheckCTMC gives %.10f (diff %.2e)",
				zr.Probability, exact.Probability, diff)
		}
	}
	mcOpts := opts(g, "asap", g.Seed+1)
	mcOpts.Delta = mcDelta
	mcOpts.Epsilon = mcEpsilon
	mcOpts.Workers = 1
	rep, err := m.Analyze(mcOpts)
	if err != nil {
		return engineOr(fail, "exact", "monte carlo: %v", err)
	}
	if diff := math.Abs(rep.Probability - exact.Probability); diff > mcEpsilon {
		return fail("exact", "monte carlo estimate %.6f (%d paths, asap) outside the ±%g band around exact %.10f (diff %.4f)",
			rep.Probability, rep.Paths, mcEpsilon, exact.Probability, diff)
	}
	// Sweep oracle: the shared-path multi-bound run under the same seed
	// must be monotone in u, agree cell by cell with the exact transient
	// probability at each bound, and reproduce the single-bound run above
	// bit for bit in its horizon cell (same stream, same consumption
	// order, same estimator state).
	if g.Bound > 0 {
		bounds := []float64{g.Bound / 3, 2 * g.Bound / 3, g.Bound}
		srep, err := m.AnalyzeSweep(mcOpts, bounds)
		if err != nil {
			return engineOr(fail, "exact", "sweep monte carlo: %v", err)
		}
		horizon := srep.Cells[len(srep.Cells)-1]
		if horizon.Estimate != rep.Estimate {
			return fail("exact", "sweep horizon cell %+v is not bit-identical to the single-bound run %+v",
				horizon.Estimate, rep.Estimate)
		}
		prev := math.Inf(-1)
		for _, c := range srep.Cells {
			pu, err := lumped.Quotient.ReachWithin(c.Bound, 1e-10)
			if err != nil {
				return fail("exact", "lumped solve at u=%g: %v", c.Bound, err)
			}
			if diff := math.Abs(c.Probability - pu); diff > mcEpsilon {
				return fail("exact", "sweep estimate %.6f at u=%g (%d shared paths) outside the ±%g band around exact %.10f (diff %.4f)",
					c.Probability, c.Bound, srep.Paths, mcEpsilon, pu, diff)
			}
			if c.Probability < prev {
				return fail("exact", "sweep estimates not monotone in u: P(u=%g)=%.6f after %.6f",
					c.Bound, c.Probability, prev)
			}
			prev = c.Probability
		}
	}
	return checkSplitting(g, m, exact.Probability, splitEffort, false, fail)
}

// checkZone is oracle level 5: on the single-clock timed class the zone
// analyzer is the exact reference. Every strategy must sample paths
// cleanly (the engine oracle still applies), and the Monte Carlo estimate
// under ASAP must fall inside the Chernoff band around the zone-exact
// transient probability.
func checkZone(g *modelgen.Generated, m *slimsim.Model, fail failf) *Discrepancy {
	if d := checkEngine(g, m, fail); d != nil {
		return d
	}
	rt, goal, d := rebuild(g, "zone", fail)
	if d != nil {
		return d
	}
	exact, err := zone.Analyze(rt, goal, g.Bound, maxStates)
	if err != nil {
		// The generator promises zone-eligible models, so ineligibility
		// is itself a generator/analyzer disagreement.
		return engineOr(fail, "zone", "zone analyze: %v", err)
	}
	if d := staticVsExact(g, m, exact.Probability, fail); d != nil {
		return d
	}
	mcOpts := opts(g, "asap", g.Seed+1)
	mcOpts.Delta = mcDelta
	mcOpts.Epsilon = mcEpsilon
	mcOpts.Workers = 1
	rep, err := m.Analyze(mcOpts)
	if err != nil {
		return engineOr(fail, "zone", "monte carlo: %v", err)
	}
	if diff := math.Abs(rep.Probability - exact.Probability); diff > mcEpsilon {
		return fail("zone", "monte carlo estimate %.6f (%d paths, asap) outside the ±%g band around zone-exact %.10f (diff %.4f)",
			rep.Probability, rep.Paths, mcEpsilon, exact.Probability, diff)
	}
	return checkSplitting(g, m, exact.Probability, splitEffort, false, fail)
}

// splitOpts returns the options of a seeded single-worker splitting run:
// like the Monte Carlo oracle runs, the fixed seed makes the verdict of a
// (class, seed) pair permanent.
func splitOpts(g *modelgen.Generated, effort int) slimsim.Options {
	o := opts(g, "asap", g.Seed+2)
	o.Delta = mcDelta
	o.Epsilon = mcEpsilon
	o.Workers = 1
	o.Effort = effort
	return o
}

// checkSplitting is oracle level 6: the importance-splitting estimator
// against an exact reference probability. The band is relative — diff/exact
// at most splitRelBand — so it keeps asserting something as exact drops to
// 1e-6 and below. With relOnly false an absolute mcEpsilon band is accepted
// too, covering the non-rare models of the Markovian and single-clock
// corpora where the splitting run degenerates toward plain sampling; the
// rare-event class sets relOnly, because at P ≤ 1e-3 the absolute band
// would accept an estimate of plain zero and assert nothing.
func checkSplitting(g *modelgen.Generated, m *slimsim.Model, exact float64, effort int, relOnly bool, fail failf) *Discrepancy {
	// The relative band is a claim about the estimator's mean, so the
	// check averages a few independently seeded runs: a single run's
	// relative variance (which compounds across stages) would need a
	// vacuously wide band, at any probability.
	runs := splitRuns
	if relOnly {
		runs = splitRareRuns
	}
	var mean float64
	ests := make([]float64, 0, runs)
	var rep slimsim.SplittingReport
	for k := 0; k < runs; k++ {
		o := splitOpts(g, effort)
		o.Seed += uint64(k)
		r, err := m.AnalyzeSplitting(o)
		if err != nil {
			return engineOr(fail, "splitting", "analyze: %v", err)
		}
		ests = append(ests, r.Probability)
		mean += r.Probability
		rep = r
	}
	mean /= float64(runs)
	diff := math.Abs(mean - exact)
	ok := exact > 0 && diff/exact <= splitRelBand
	if !relOnly && diff <= mcEpsilon {
		ok = true
	}
	if !ok && runs > 1 {
		// The fixed bands alone are too tight at high-variance corners
		// (fresh rare seeds near P ≈ 1e-8, or shallow two-level ladders
		// at the survey effort), so the band widens by a Student-style
		// empirical term — the same construction as the corpus
		// unbiasedness test. It keys on the runs' own spread, so a
		// genuinely biased estimator (whose runs agree with each other,
		// not with the exact answer) still fails.
		var varSum float64
		for _, e := range ests {
			varSum += (e - mean) * (e - mean)
		}
		sd := math.Sqrt(varSum / float64(runs-1))
		ok = diff <= 4*sd/math.Sqrt(float64(runs))
	}
	if !ok && relOnly && exact > 0 && exact < splitDeepExact {
		ratio := mean / exact
		ok = ratio >= 1/splitDeepFactor && ratio <= splitDeepFactor
	}
	if !ok {
		return fail("splitting", "splitting estimate %.6e (mean of %d runs; levels=%d, effort=%d, branches=%d, level=%s) outside the %g relative band around exact %.6e",
			mean, runs, len(rep.Stages), rep.Effort, rep.Branches, rep.LevelSource, splitRelBand, exact)
	}
	return nil
}

// checkRare is the rare-event face of the splitting oracle: the exact CTMC
// pipeline provides the reference, the splitting estimate must land inside
// the relative band, and the degenerate single-level splitting run must
// reproduce the plain Monte Carlo estimate bit for bit on the same seed.
// The plain Monte Carlo band check of the Markovian oracle is explicitly
// skipped: with exact probabilities down to 1e-9, an estimate of plain 0
// sits comfortably inside ±mcEpsilon, so the check would assert nothing.
func checkRare(g *modelgen.Generated, m *slimsim.Model, fail failf) *Discrepancy {
	exact, err := m.CheckCTMC(g.Goal, g.Bound, maxStates)
	if err != nil {
		return engineOr(fail, "exact", "CheckCTMC: %v", err)
	}
	if d := staticVsExact(g, m, exact.Probability, fail); d != nil {
		return d
	}
	if exact.Probability > 1e-2 || exact.Probability <= 0 {
		return fail("exact", "rare-event model is not rare: exact P = %.6e", exact.Probability)
	}
	if d := checkSplitting(g, m, exact.Probability, rareEffort, true, fail); d != nil {
		return d
	}
	// Degenerate cross-check: a single-level splitting run is plain Monte
	// Carlo by construction and must agree bit for bit, not just
	// statistically.
	dOpts := splitOpts(g, 0)
	dOpts.Levels = 1
	drep, err := m.AnalyzeSplitting(dOpts)
	if err != nil {
		return engineOr(fail, "splitting", "degenerate analyze: %v", err)
	}
	mcRep, err := m.Analyze(dOpts)
	if err != nil {
		return engineOr(fail, "splitting", "monte carlo: %v", err)
	}
	if !drep.Degenerate || drep.Probability != mcRep.Probability {
		return fail("splitting", "single-level splitting %.10e is not bit-identical to plain Monte Carlo %.10e (degenerate=%v)",
			drep.Probability, mcRep.Probability, drep.Degenerate)
	}
	return nil
}

// checkSymmetric is oracle level 8: on the symmetric replica class the
// counter-abstraction pipeline is the subject under test. The detector
// must certify a replica group (the generator makes the model symmetric by
// construction), the goal must be permutation-invariant, the quotient
// chain after lumping must agree with the explicit chain after lumping to
// symTol at a symTail uniformization tail, and the public CheckCTMC must
// produce the same probability with the fast path engaged and disabled.
// The standard Monte Carlo band then ties the exact answer to sampling.
func checkSymmetric(g *modelgen.Generated, m *slimsim.Model, fail failf) *Discrepancy {
	rt, goal, d := rebuild(g, "symmetry", fail)
	if d != nil {
		return d
	}
	red := symmetry.Detect(rt)
	if red == nil {
		return fail("symmetry", "no certified replica group on a generated symmetric model")
	}
	if !red.Invariant(goal) {
		return fail("symmetry", "goal %q is not invariant under the certified permutations", g.Goal)
	}
	qr, err := symmetry.BuildQuotient(rt, red, goal, maxStates)
	if err != nil {
		return engineOr(fail, "symmetry", "quotient build: %v", err)
	}
	er, err := ctmc.Build(rt, goal, maxStates)
	if err != nil {
		return engineOr(fail, "symmetry", "explicit build: %v", err)
	}
	if qr.Chain.NumStates() > er.Chain.NumStates() {
		return fail("symmetry", "quotient has %d states, explicit only %d — canonicalization split orbits",
			qr.Chain.NumStates(), er.Chain.NumStates())
	}
	lq, err := bisim.Lump(qr.Chain)
	if err != nil {
		return fail("symmetry", "lump quotient: %v", err)
	}
	le, err := bisim.Lump(er.Chain)
	if err != nil {
		return fail("symmetry", "lump explicit: %v", err)
	}
	if lq.Blocks != le.Blocks {
		return fail("symmetry", "quotient lumps to %d blocks, explicit to %d — the counter abstraction is not a lumping refinement",
			lq.Blocks, le.Blocks)
	}
	pq, err := lq.Quotient.ReachWithin(g.Bound, symTail)
	if err != nil {
		return fail("symmetry", "quotient solve: %v", err)
	}
	pe, err := le.Quotient.ReachWithin(g.Bound, symTail)
	if err != nil {
		return fail("symmetry", "explicit solve: %v", err)
	}
	if diff := math.Abs(pq - pe); diff > symTol {
		return fail("symmetry", "quotient (%d states) gives %.15f, explicit (%d states) gives %.15f (diff %.2e > %.0e)",
			qr.Chain.NumStates(), pq, er.Chain.NumStates(), pe, diff, symTol)
	}
	// The public pipeline must engage the fast path and agree with the
	// forced-explicit run to solver precision (both solve at the default
	// 1e-10 tail, possibly on differently-lumped but bisimilar chains).
	def, err := m.CheckCTMC(g.Goal, g.Bound, maxStates)
	if err != nil {
		return engineOr(fail, "symmetry", "CheckCTMC: %v", err)
	}
	if def.Symmetry == nil {
		return fail("symmetry", "CheckCTMC did not engage the symmetry fast path on a certified model")
	}
	exp, err := m.CheckCTMC(g.Goal, g.Bound, maxStates, slimsim.WithoutSymmetry())
	if err != nil {
		return engineOr(fail, "symmetry", "CheckCTMC without symmetry: %v", err)
	}
	if exp.Symmetry != nil {
		return fail("symmetry", "WithoutSymmetry still reports a reduction")
	}
	if diff := math.Abs(def.Probability - exp.Probability); diff > solverTol {
		return fail("symmetry", "CheckCTMC gives %.10f with the fast path, %.10f without (diff %.2e)",
			def.Probability, exp.Probability, diff)
	}
	if d := staticVsExact(g, m, def.Probability, fail); d != nil {
		return d
	}
	mcOpts := opts(g, "asap", g.Seed+1)
	mcOpts.Delta = mcDelta
	mcOpts.Epsilon = mcEpsilon
	mcOpts.Workers = 1
	rep, err := m.Analyze(mcOpts)
	if err != nil {
		return engineOr(fail, "symmetry", "monte carlo: %v", err)
	}
	if diff := math.Abs(rep.Probability - def.Probability); diff > mcEpsilon {
		return fail("symmetry", "monte carlo estimate %.6f (%d paths, asap) outside the ±%g band around exact %.10f (diff %.4f)",
			rep.Probability, rep.Paths, mcEpsilon, def.Probability, diff)
	}
	return nil
}

// checkEngine is the timed-class oracle: no exact reference exists, so
// the engine's own invariants are the oracle — every strategy must sample
// paths without tripping ErrEngine or any other failure. Ordinary failures
// file under their own oracle, simulate, so shrinking an engine failure
// cannot drift into a model that merely lost the goal's component.
func checkEngine(g *modelgen.Generated, m *slimsim.Model, fail failf) *Discrepancy {
	for _, strat := range Strategies {
		if _, err := m.Simulate(opts(g, strat, g.Seed+1), timedPaths); err != nil {
			return engineOr(fail, "simulate", "%s: %v", strat, err)
		}
	}
	return nil
}

type failf func(oracle, format string, args ...any) *Discrepancy

// rebuild instantiates g's source into a runtime and compiled goal through
// the internal pipeline, independently of the public Model. A failure is
// filed under oracle, so a shrunk reproducer keeps failing the same check.
func rebuild(g *modelgen.Generated, oracle string, fail failf) (*network.Runtime, expr.Expr, *Discrepancy) {
	parsed, err := slim.Parse(g.Source)
	if err != nil {
		return nil, nil, fail(oracle, "reparse: %v", err)
	}
	built, err := model.Instantiate(parsed)
	if err != nil {
		return nil, nil, fail(oracle, "instantiate: %v", err)
	}
	rt, err := network.New(built.Net)
	if err != nil {
		return nil, nil, fail(oracle, "network: %v", err)
	}
	goal, err := built.CompileExpr(g.Goal)
	if err != nil {
		return nil, nil, fail(oracle, "goal %q: %v", g.Goal, err)
	}
	return rt, goal, nil
}

// engineOr classifies err: engine-internal failures surface under the
// dedicated "engine" oracle regardless of which check hit them.
func engineOr(fail failf, oracle, format string, args ...any) *Discrepancy {
	for _, a := range args {
		if err, ok := a.(error); ok && errors.Is(err, slimsim.ErrEngine) {
			return fail("engine", format, args...)
		}
	}
	return fail(oracle, format, args...)
}

// sameTrace compares two path traces event-by-event.
func sameTrace(a, b slimsim.PathTrace) bool {
	if a.Satisfied != b.Satisfied || a.Termination != b.Termination || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

// renderTrace formats a trace for discrepancy reports.
func renderTrace(tr slimsim.PathTrace) string {
	s := fmt.Sprintf("  %v at t=%g (%s)", tr.Satisfied, tr.EndTime, tr.Termination)
	for _, e := range tr.Events {
		s += "\n  " + e
	}
	return s
}
