package modelgen

import (
	"testing"

	"slimsim/internal/lint"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/slim"
)

// seedsPerClass bounds the per-class sweep; -short trims it.
func seedsPerClass(t *testing.T) uint64 {
	if testing.Short() {
		return 30
	}
	return 120
}

// TestGeneratedModelsAreWellFormed sweeps seeds through every class and
// requires the generator's core contract: the printed source parses, lints
// without a single diagnostic (warnings included), instantiates, and
// composes into a runnable network.
func TestGeneratedModelsAreWellFormed(t *testing.T) {
	n := seedsPerClass(t)
	for _, class := range Classes {
		for seed := uint64(0); seed < n; seed++ {
			g, err := Generate(class, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", class, seed, err)
			}
			parsed, err := slim.Parse(g.Source)
			if err != nil {
				t.Fatalf("%s/%d: generated source does not parse: %v\n%s", class, seed, err, g.Source)
			}
			if diags := lint.RunSource(g.Source); len(diags) != 0 {
				t.Fatalf("%s/%d: generated model has %d lint diagnostics, first: %s\n%s",
					class, seed, len(diags), diags[0].Render("gen"), g.Source)
			}
			b, err := model.Instantiate(parsed)
			if err != nil {
				t.Fatalf("%s/%d: instantiate: %v\n%s", class, seed, err, g.Source)
			}
			if _, err := network.New(b.Net); err != nil {
				t.Fatalf("%s/%d: network: %v\n%s", class, seed, err, g.Source)
			}
			if g.Goal == "" || g.Bound <= 0 {
				t.Fatalf("%s/%d: missing property: goal=%q bound=%g", class, seed, g.Goal, g.Bound)
			}
		}
	}
}

// TestGenerateIsDeterministic requires that the same (class, seed) pair
// always yields byte-identical source and the same property — corpus
// entries reproduce from the pair alone.
func TestGenerateIsDeterministic(t *testing.T) {
	for _, class := range Classes {
		for seed := uint64(0); seed < 20; seed++ {
			a, err := Generate(class, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(class, seed)
			if err != nil {
				t.Fatal(err)
			}
			if a.Source != b.Source || a.Goal != b.Goal || a.Bound != b.Bound {
				t.Fatalf("%s/%d: two generations differ", class, seed)
			}
		}
	}
}

// TestGeneratedSourceRoundTrips requires print -> parse -> print to be a
// fixed point on generated models.
func TestGeneratedSourceRoundTrips(t *testing.T) {
	for _, class := range Classes {
		for seed := uint64(0); seed < 40; seed++ {
			g, err := Generate(class, seed)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := slim.Parse(g.Source)
			if err != nil {
				t.Fatalf("%s/%d: %v", class, seed, err)
			}
			if again := slim.Print(parsed); again != g.Source {
				t.Fatalf("%s/%d: print/parse/print not a fixed point\n--- first ---\n%s\n--- second ---\n%s",
					class, seed, g.Source, again)
			}
		}
	}
}

// TestDeterministicClassHasKnownVerdict pins the contract difftest's
// strategy oracle relies on.
func TestDeterministicClassHasKnownVerdict(t *testing.T) {
	sat, unsat := 0, 0
	for seed := uint64(0); seed < 60; seed++ {
		g, err := Generate(Deterministic, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !g.KnownVerdict {
			t.Fatalf("seed %d: deterministic model without a known verdict", seed)
		}
		if g.Satisfied {
			sat++
		} else {
			unsat++
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("verdicts never vary: %d satisfied, %d unsatisfied", sat, unsat)
	}
	for seed := uint64(0); seed < 20; seed++ {
		g, err := Generate(Markovian, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.KnownVerdict {
			t.Fatalf("seed %d: markovian model claims a known verdict", seed)
		}
	}
}

func TestUnknownClass(t *testing.T) {
	if _, err := Generate(Class("nope"), 1); err == nil {
		t.Fatal("Generate accepted an unknown class")
	}
}
