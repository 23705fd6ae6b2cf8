// Command slimfuzz drives the differential-testing harness from the
// command line: it generates seeded random SLIM models, pushes each
// through the oracle hierarchy (lint, printer round-trip, strategy
// agreement, exact CTMC cross-check, exact single-clock zone cross-check,
// engine invariants), shrinks any model
// the oracles disagree on to a minimal reproducer, and writes it next to the
// regression corpus, into internal/difftest/corpus/new, which the corpus
// replay ignores until the reproducer is moved up and committed.
//
// Example:
//
//	slimfuzz -class timed -n 500
//	slimfuzz -class all -seeds 17,42 -corpus repros
//
// Exit codes: 0 when all oracles agreed on every model, 2 when at least
// one discrepancy was found (reproducers written), 1 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"slimsim/internal/difftest"
	"slimsim/internal/modelgen"
)

func main() {
	found, err := run(os.Args[1:], os.Stdout)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "slimfuzz:", err)
		os.Exit(1)
	case found > 0:
		os.Exit(2)
	}
}

func run(args []string, out *os.File) (found int, err error) {
	fs := flag.NewFlagSet("slimfuzz", flag.ContinueOnError)
	var (
		classFlag = fs.String("class", "all", "model class to generate: markovian, deterministic, timed, singleclock, rareevent, symmetric or all")
		n         = fs.Int("n", 100, "number of seeds to explore per class")
		base      = fs.Uint64("base", 0, "first seed (default: derived from the current time)")
		seedsFlag = fs.String("seeds", "", "comma-separated explicit seeds (overrides -n/-base)")
		corpus    = fs.String("corpus", "internal/difftest/corpus/new", "directory for shrunk reproducers")
		noShrink  = fs.Bool("no-shrink", false, "report discrepancies without shrinking")
		quiet     = fs.Bool("q", false, "print only discrepancies and the summary")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	var classes []modelgen.Class
	if *classFlag == "all" {
		classes = modelgen.Classes
	} else {
		c := modelgen.Class(*classFlag)
		if _, err := modelgen.Generate(c, 0); err != nil {
			return 0, err
		}
		classes = []modelgen.Class{c}
	}
	var seeds []uint64
	switch {
	case *seedsFlag != "":
		for _, s := range strings.Split(*seedsFlag, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad seed %q: %v", s, err)
			}
			seeds = append(seeds, v)
		}
	case *n <= 0:
		return 0, fmt.Errorf("-n must be positive, got %d", *n)
	default:
		first := *base
		if first == 0 {
			first = uint64(time.Now().UnixNano())
		}
		for i := 0; i < *n; i++ {
			seeds = append(seeds, first+uint64(i))
		}
	}

	checked := 0
	start := time.Now()
	for _, class := range classes {
		for _, seed := range seeds {
			g, err := modelgen.Generate(class, seed)
			if err != nil {
				return found, err
			}
			checked++
			d := difftest.Check(g)
			if d == nil {
				continue
			}
			found++
			if !*noShrink {
				d = difftest.Shrink(d)
			}
			if _, err := difftest.WriteRepro(*corpus, d); err != nil {
				return found, fmt.Errorf("writing reproducer: %v", err)
			}
			fmt.Fprintln(out, d.Error())
		}
	}
	if !*quiet || found > 0 {
		fmt.Fprintf(out, "slimfuzz: %d models checked in %s, %d discrepancies (first seed %d)\n",
			checked, time.Since(start).Round(time.Millisecond), found, seeds[0])
	}
	return found, nil
}
