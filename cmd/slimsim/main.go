// Command slimsim is the Monte Carlo analyzer CLI: it loads a SLIM model,
// compiles a time-bounded property, and estimates its probability under a
// chosen scheduling strategy. Its flags mirror the inputs of the paper's
// GUI (Fig. 1): model file, confidence, error bound, and strategy.
//
// Example:
//
//	slimsim -model launcher.slim \
//	        -goal 'not thr1.powered and not thr2.powered' \
//	        -bound 3600 -strategy progressive -delta 0.05 -eps 0.01
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"slimsim"
	"slimsim/internal/cli"
	"slimsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slimsim:", err)
		// Exit 2 flags engine-internal failures so differential harnesses
		// can tell engine bugs from ordinary model or usage errors.
		os.Exit(slimsim.ExitCode(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slimsim", flag.ContinueOnError)
	var (
		modelPath   = fs.String("model", "", "path to the SLIM model file (required)")
		goal        = fs.String("goal", "", "goal predicate over instance paths (required unless -prop is given)")
		pattern     = fs.String("prop", "", "full property pattern, e.g. 'P(<> [0,3600] failure)' (overrides -goal/-kind/-bound)")
		constraint  = fs.String("constraint", "", "constraint predicate for -kind until")
		kind        = fs.String("kind", "reach", "property kind: reach, always or until")
		bound       = fs.Float64("bound", 0, "time bound u of the property (required)")
		boundsList  = fs.String("bounds", "", "comma-separated ascending time bounds u1,u2,... for a multi-bound sweep sharing one path stream (overrides -bound)")
		strat       = fs.String("strategy", "progressive", "strategy: asap, progressive, local or maxtime")
		delta       = fs.Float64("delta", 0.05, "statistical risk δ (confidence is 1-δ)")
		eps         = fs.Float64("eps", 0.01, "error bound ε")
		method      = fs.String("method", "chernoff", "sample-count generator: chernoff, gauss or chow-robbins")
		relErr      = fs.Float64("rel", 0, "relative-error stopping rule: sample until the CLT half-width is at most rel·p̂ (0 disables; for rare-event runs; with -bounds every bound stops by its own rule)")
		useSplit    = fs.Bool("splitting", false, "use importance splitting (fixed effort) instead of plain Monte Carlo")
		levels      = fs.Int("levels", 0, "number of splitting levels (0 = derive automatically from the property)")
		effort      = fs.Int("effort", 0, "branches per splitting stage (0 = default)")
		workers     = fs.Int("workers", runtime.NumCPU(), "parallel sampling workers")
		seed        = fs.Uint64("seed", 1, "random seed (runs with equal seeds are reproducible)")
		onLock      = fs.String("on-lock", "violate", "deadlock/timelock policy: violate or error")
		quiet       = fs.Bool("q", false, "print only the probability")
		simulate    = fs.Int("simulate", 0, "instead of analyzing, print N sample path traces")
		interactive = fs.Bool("interactive", false, "instead of analyzing, drive one path interactively (Input strategy)")
		noLint      = fs.Bool("no-lint", false, "skip the static analysis that rejects defective models")
		noStatic    = fs.Bool("no-static", false, "skip the abstract-interpretation fast path that decides trivial properties without sampling")
		reportPath  = fs.String("report", "", "write a JSON run report (schema in docs/OBSERVABILITY.md) to this path")
		progress    = fs.Bool("progress", false, "print periodic progress (samples, rate, ETA, running p̂) to stderr")
		pprofAddr   = fs.String("pprof", "", "serve pprof/expvar debug endpoints on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || (*pattern == "" && *goal == "") || (*pattern == "" && *boundsList == "" && *bound <= 0) {
		fs.Usage()
		return fmt.Errorf("-model plus either -prop or (-goal and a positive -bound or -bounds) are required")
	}
	// Range-check the accuracy knobs here so a bad value is a usage error
	// (exit 1) instead of surfacing from deep inside the sampling loop.
	if !(*delta > 0 && *delta < 1) {
		return fmt.Errorf("-delta must lie strictly between 0 and 1, got %g", *delta)
	}
	if !(*eps > 0 && *eps < 1) {
		return fmt.Errorf("-eps must lie strictly between 0 and 1, got %g", *eps)
	}
	if *relErr != 0 && !(*relErr > 0 && *relErr < 1) {
		return fmt.Errorf("-rel must lie strictly between 0 and 1 (or be 0 to disable), got %g", *relErr)
	}
	if *levels < 0 {
		return fmt.Errorf("-levels must be non-negative, got %d", *levels)
	}
	if *effort < 0 {
		return fmt.Errorf("-effort must be non-negative, got %d", *effort)
	}
	sweepBounds, err := parseBounds(*boundsList)
	if err != nil {
		return err
	}
	// Sweeps share one Monte Carlo path stream across bounds; the
	// splitting estimator does not compose with that sharing, so the
	// combination is a usage error.
	if *useSplit && len(sweepBounds) > 0 {
		return fmt.Errorf("-splitting cannot be combined with -bounds")
	}

	m, err := cli.LoadModel(*modelPath, *noLint, os.Stderr)
	if err != nil {
		return err
	}
	// One set of options for every mode, so the trace modes resolve the
	// strategy, seed and lock policy exactly as the analysis does.
	opts := slimsim.Options{
		Pattern:    *pattern,
		Kind:       slimsim.PropertyKind(*kind),
		Goal:       *goal,
		Constraint: *constraint,
		Bound:      *bound,
		Strategy:   *strat,
		Delta:      *delta,
		Epsilon:    *eps,
		Method:     *method,
		RelErr:     *relErr,
		Workers:    *workers,
		Seed:       *seed,
		OnLock:     *onLock,
		Levels:     *levels,
		Effort:     *effort,
	}
	if *interactive {
		return runInteractive(m, opts)
	}
	if *simulate > 0 {
		traces, err := m.Simulate(opts, *simulate)
		if err != nil {
			return err
		}
		for i, tr := range traces {
			fmt.Printf("--- path %d: %s at t=%g (%s) ---\n", i+1, verdictWord(tr.Satisfied), tr.EndTime, tr.Termination)
			for _, ev := range tr.Events {
				fmt.Println(" ", ev)
			}
		}
		return nil
	}
	if !*quiet {
		fmt.Printf("loaded %s: %d processes, %d variables\n", *modelPath, m.NumProcesses(), m.NumVars())
	}
	// Static fast path: when the fixpoint decides the property exactly, no
	// amount of sampling adds information — report the 0/1 answer and the
	// reason instead of spinning the Monte Carlo loop. Static verdicts are
	// bound-independent (they decide the property from the initial state or
	// from static reachability), so a decided sweep is the same 0/1 answer
	// for every bound.
	if !*noStatic {
		static := opts
		if len(sweepBounds) > 0 {
			static.Bound = sweepBounds[len(sweepBounds)-1]
		}
		srep, err := m.CheckStatic(static)
		if err != nil {
			return err
		}
		if srep.Decided {
			if *quiet {
				for range sweepBounds {
					fmt.Printf("%.6f\n", srep.Probability)
				}
				if len(sweepBounds) == 0 {
					fmt.Printf("%.6f\n", srep.Probability)
				}
				return nil
			}
			for _, u := range sweepBounds {
				fmt.Printf("P(u=%g) = %.6f (exact, no sampling needed)\n", u, srep.Probability)
			}
			if len(sweepBounds) == 0 {
				fmt.Printf("P = %.6f (exact, no sampling needed)\n", srep.Probability)
			}
			fmt.Printf("decided statically: %s\n", srep.Reason)
			return nil
		}
	}
	// Telemetry: one collector feeds the report file, the progress line
	// and the debug endpoints; when none of the flags is set the sampling
	// loop runs without any of it.
	var tel *slimsim.Telemetry
	if *reportPath != "" || *progress || *pprofAddr != "" {
		tel = slimsim.NewTelemetry(slimsim.TelemetryInfo{Tool: "slimsim", Model: *modelPath})
	}
	if *pprofAddr != "" {
		srv, err := telemetry.ServeDebug(*pprofAddr, tel)
		if err != nil {
			return err
		}
		defer srv.Close()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "slimsim: debug endpoints on http://%s/debug/\n", *pprofAddr)
		}
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = tel.StartProgress(os.Stderr, 0)
	}
	opts.Telemetry = tel
	if len(sweepBounds) > 0 {
		rep, err := m.AnalyzeSweep(opts, sweepBounds)
		stopProgress()
		if err != nil {
			return err
		}
		if *reportPath != "" {
			if err := tel.Report().WriteFile(*reportPath); err != nil {
				return err
			}
		}
		if *quiet {
			for _, c := range rep.Cells {
				fmt.Printf("%.6f\n", c.Probability)
			}
			return nil
		}
		fmt.Println(rep)
		return nil
	}
	if *useSplit {
		rep, err := m.AnalyzeSplitting(opts)
		stopProgress()
		if err != nil {
			return err
		}
		if *reportPath != "" {
			if err := tel.Report().WriteFile(*reportPath); err != nil {
				return err
			}
		}
		if *quiet {
			fmt.Printf("%.6g\n", rep.Probability)
			return nil
		}
		fmt.Println(rep)
		return nil
	}
	rep, err := m.Analyze(opts)
	stopProgress()
	if err != nil {
		return err
	}
	if *reportPath != "" {
		if err := tel.Report().WriteFile(*reportPath); err != nil {
			return err
		}
	}
	if *quiet {
		fmt.Printf("%.6f\n", rep.Probability)
		return nil
	}
	fmt.Println(rep)
	return nil
}

// parseBounds parses the -bounds flag: a comma-separated list of finite,
// positive, strictly ascending time bounds. An empty string means no
// sweep was requested. Errors here are usage errors (exit 1), matching
// the -delta/-eps convention.
func parseBounds(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	bounds := make([]float64, 0, len(parts))
	for _, part := range parts {
		u, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-bounds: bad bound %q", part)
		}
		if !(u > 0) || math.IsInf(u, 0) {
			return nil, fmt.Errorf("-bounds: bounds must be positive and finite, got %q", part)
		}
		if n := len(bounds); n > 0 && u <= bounds[n-1] {
			return nil, fmt.Errorf("-bounds: bounds must be strictly ascending, got %g after %g", u, bounds[n-1])
		}
		bounds = append(bounds, u)
	}
	return bounds, nil
}

func verdictWord(sat bool) string {
	if sat {
		return "satisfied"
	}
	return "violated"
}

// runInteractive drives one path with decisions read from stdin, showing
// the candidate moves and their enabling windows at every step — the CLI
// form of the paper's Input strategy.
func runInteractive(m *slimsim.Model, opts slimsim.Options) error {
	in := bufio.NewScanner(os.Stdin)
	tr, err := m.SimulateInteractive(opts, func(p slimsim.Prompt) (slimsim.Decision, error) {
		fmt.Printf("\ndecision point at t=%g (max delay %g):\n", p.Now, p.MaxDelay)
		for i, mv := range p.Moves {
			fmt.Printf("  [%d] %s  enabled at %s\n", i, mv.Label, mv.Window)
		}
		fmt.Print("delay [move]> ")
		if !in.Scan() {
			return slimsim.Decision{}, fmt.Errorf("input closed")
		}
		var d float64
		move := -1
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			return slimsim.Decision{}, fmt.Errorf("empty input")
		}
		if _, err := fmt.Sscanf(fields[0], "%g", &d); err != nil {
			return slimsim.Decision{}, fmt.Errorf("bad delay %q", fields[0])
		}
		if len(fields) > 1 {
			if _, err := fmt.Sscanf(fields[1], "%d", &move); err != nil {
				return slimsim.Decision{}, fmt.Errorf("bad move %q", fields[1])
			}
		}
		return slimsim.Decision{Delay: d, Move: move}, nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("\npath %s at t=%g (%s):\n", verdictWord(tr.Satisfied), tr.EndTime, tr.Termination)
	for _, ev := range tr.Events {
		fmt.Println(" ", ev)
	}
	return nil
}
