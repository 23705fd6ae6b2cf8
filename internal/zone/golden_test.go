package zone

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slimsim/internal/ctmc"
	"slimsim/internal/modelgen"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from the current analyzers")

// goldenSeeds is the number of modelgen seeds per class the result golden
// covers.
const goldenSeeds = 400

// TestResultsGolden pins the exact answers bit for bit against
// testdata/results.golden: for modelgen singleclock and markovian seeds
// 1–400, Analyze's probability and dead mass (as Float64bits), segment
// count and peak closure size, and for the markovian seeds also the
// explicit CTMC's ReachWithin. Refactors of either solver must leave the
// file untouched; regenerate with -update only for an intended change of
// the answers.
func TestResultsGolden(t *testing.T) {
	var got strings.Builder
	for _, class := range []modelgen.Class{modelgen.SingleClockTimed, modelgen.Markovian} {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			rt, goal, bound := generated(t, class, seed)
			fmt.Fprintf(&got, "%s %d", class, seed)
			if res, err := Analyze(rt, goal, bound, 0); err != nil {
				fmt.Fprintf(&got, " zone-err=%q", err)
			} else {
				fmt.Fprintf(&got, " p=%016x dead=%016x segments=%d peak=%d",
					math.Float64bits(res.Probability), math.Float64bits(res.Dead), res.Segments, res.PeakStates)
			}
			if class == modelgen.Markovian {
				built, err := ctmc.Build(rt, goal, 0)
				var p float64
				if err == nil {
					p, err = built.Chain.ReachWithin(bound, 1e-10)
				}
				if err != nil {
					fmt.Fprintf(&got, " ctmc-err=%q", err)
				} else {
					fmt.Fprintf(&got, " ctmc=%016x", math.Float64bits(p))
				}
			}
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d results, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
