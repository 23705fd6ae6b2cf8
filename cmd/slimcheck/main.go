// Command slimcheck runs the paper's numerical baseline pipeline on the
// untimed (Markovian) fragment of a SLIM model: explicit state-space
// construction (the NuSMV step), bisimulation lumping (the Sigref step) and
// uniformization-based time-bounded reachability (the MRMC step). It is the
// comparator used for Table I. When the model's replicas form certified
// symmetry groups, the state space is built as the counter-abstracted
// quotient directly (disable with -no-symmetry). With -exact, timed models
// are routed to the exact single-clock zone analysis, which admits one
// clock with integer-bounded guards and invariants; untimed models keep
// the (already exact) CTMC pipeline.
//
// Example:
//
//	slimcheck -model sensorfilter.slim -goal 'mon.down' -bound 200
//	slimcheck -exact -model gate.slim -goal 'mon.alarm' -bound 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"slimsim"
	"slimsim/internal/cli"
	"slimsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slimcheck:", err)
		// Exit 2 flags engine-internal failures so differential harnesses
		// can tell engine bugs from ordinary model or usage errors.
		os.Exit(slimsim.ExitCode(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slimcheck", flag.ContinueOnError)
	var (
		modelPath  = fs.String("model", "", "path to the SLIM model file (required)")
		goal       = fs.String("goal", "", "goal predicate over instance paths (required)")
		bound      = fs.Float64("bound", 0, "time bound u of the property (required)")
		maxStates  = fs.Int("max-states", 1<<20, "explicit state-space cap")
		exact      = fs.Bool("exact", false, "force an exact analysis: the symmetry-reduced CTMC pipeline on untimed models, the single-clock zone analyzer on timed ones")
		quiet      = fs.Bool("q", false, "print only the probability")
		noLint     = fs.Bool("no-lint", false, "skip the static analysis that rejects defective models")
		noStatic   = fs.Bool("no-static", false, "skip the abstract-interpretation fast path that decides trivial properties without building the state space")
		noSymmetry = fs.Bool("no-symmetry", false, "disable the counter-abstraction symmetry reduction and always build the explicit state space")
		reportPath = fs.String("report", "", "write a JSON run report (schema in docs/OBSERVABILITY.md) to this path")
		progress   = fs.Bool("progress", false, "print pipeline phase progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *goal == "" || !(*bound > 0) || math.IsInf(*bound, 0) {
		fs.Usage()
		return fmt.Errorf("-model, -goal and a positive, finite -bound are required")
	}

	m, err := cli.LoadModel(*modelPath, *noLint, os.Stderr)
	if err != nil {
		return err
	}
	if !*noStatic {
		rep, err := m.CheckStatic(slimsim.Options{Goal: *goal, Bound: *bound})
		if err != nil {
			return err
		}
		if rep.Decided {
			if *quiet {
				fmt.Printf("%.10f\n", rep.Probability)
				return nil
			}
			fmt.Printf("P = %.10f (exact)\n", rep.Probability)
			fmt.Printf("decided statically: %s\n", rep.Reason)
			return nil
		}
	}
	// -exact on the untimed fragment is the CTMC pipeline itself (it is
	// exact there, and the symmetry reduction extends its reach); only
	// timed models need the zone analyzer.
	if *exact && !m.Untimed() {
		return runZone(m, *modelPath, *goal, *bound, *maxStates, *quiet, *progress, *reportPath)
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "slimcheck: state space -> lumping -> uniformization on %s (bound %g)...\n",
			*modelPath, *bound)
	}
	var opts []slimsim.CTMCOption
	if *noSymmetry {
		opts = append(opts, slimsim.WithoutSymmetry())
	}
	start := time.Now()
	rep, err := m.CheckCTMC(*goal, *bound, *maxStates, opts...)
	if err != nil {
		var of *slimsim.OverflowError
		if errors.As(err, &of) {
			return fmt.Errorf("state space exceeds -max-states=%d (%d tangible states, %d vanishing resolved; frontier key prefix %q) — raise -max-states, or check that the model's replicas are symmetric so the counter abstraction can engage", of.Limit, of.Explored, of.Vanishing, of.KeyPrefix)
		}
		return err
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "slimcheck: done in %s (build %s, lump %s, solve %s; %d states -> %d blocks)\n",
			time.Since(start).Round(time.Millisecond),
			rep.BuildTime.Round(time.Millisecond), rep.LumpTime.Round(time.Millisecond),
			rep.SolveTime.Round(time.Millisecond), rep.States, rep.LumpedStates)
	}
	if *reportPath != "" {
		out := telemetry.Report{
			SchemaVersion: telemetry.SchemaVersion,
			Tool:          "slimcheck",
			Model:         *modelPath,
			Property:      fmt.Sprintf("P(<> [0,%g] %s)", *bound, *goal),
			Timing:        &telemetry.Timing{WallClockMS: float64(time.Since(start)) / float64(time.Millisecond)},
			CTMC: &telemetry.CTMCMetrics{
				Probability:  rep.Probability,
				States:       rep.States,
				Explored:     rep.Explored,
				LumpedStates: rep.LumpedStates,
				BuildMS:      float64(rep.BuildTime) / float64(time.Millisecond),
				LumpMS:       float64(rep.LumpTime) / float64(time.Millisecond),
				SolveMS:      float64(rep.SolveTime) / float64(time.Millisecond),
			},
		}
		if rep.Symmetry != nil {
			out.CTMC.SymmetryGroups = rep.Symmetry.Groups
			out.CTMC.SymmetryReplicas = rep.Symmetry.Replicas
		}
		if err := out.WriteFile(*reportPath); err != nil {
			return err
		}
	}
	if *quiet {
		fmt.Printf("%.10f\n", rep.Probability)
		return nil
	}
	fmt.Printf("P = %.10f\n", rep.Probability)
	if rep.Symmetry != nil {
		fmt.Printf("symmetry: %d replica group(s) %v, counter-abstracted quotient built directly\n",
			rep.Symmetry.Groups, rep.Symmetry.Replicas)
	}
	fmt.Printf("states: %d tangible (%d explored), lumped to %d blocks\n",
		rep.States, rep.Explored, rep.LumpedStates)
	fmt.Printf("time: build %s, lump %s, solve %s\n", rep.BuildTime, rep.LumpTime, rep.SolveTime)
	return nil
}

// runZone runs the exact single-clock zone analysis behind -exact.
func runZone(m *slimsim.Model, modelPath, goal string, bound float64, maxStates int, quiet, progress bool, reportPath string) error {
	if progress {
		fmt.Fprintf(os.Stderr, "slimcheck: zone unfolding + uniformization on %s (bound %g)...\n",
			modelPath, bound)
	}
	start := time.Now()
	rep, err := m.CheckZone(goal, bound, maxStates)
	if err != nil {
		return err
	}
	if progress {
		fmt.Fprintf(os.Stderr, "slimcheck: done in %s (%d segments, peak %d states)\n",
			time.Since(start).Round(time.Millisecond), rep.Segments, rep.PeakStates)
	}
	if reportPath != "" {
		out := telemetry.Report{
			SchemaVersion: telemetry.SchemaVersion,
			Tool:          "slimcheck",
			Model:         modelPath,
			Property:      fmt.Sprintf("P(<> [0,%g] %s)", bound, goal),
			Timing:        &telemetry.Timing{WallClockMS: float64(time.Since(start)) / float64(time.Millisecond)},
		}
		if err := out.WriteFile(reportPath); err != nil {
			return err
		}
	}
	if quiet {
		fmt.Printf("%.10f\n", rep.Probability)
		return nil
	}
	fmt.Printf("P = %.10f\n", rep.Probability)
	fmt.Printf("dead mass: %.10f\n", rep.Dead)
	fmt.Printf("segments: %d, peak %d tangible states\n", rep.Segments, rep.PeakStates)
	fmt.Printf("time: solve %s\n", rep.SolveTime)
	return nil
}
