package difftest

import (
	"strings"
	"testing"

	"slimsim/internal/modelgen"
	"slimsim/internal/slim"
)

// findSingleClock scans seeds for a singleclock model satisfying pick.
func findSingleClock(t *testing.T, pick func(*modelgen.Generated) bool) *modelgen.Generated {
	t.Helper()
	for seed := uint64(0); seed < 500; seed++ {
		g, err := modelgen.Generate(modelgen.SingleClockTimed, seed)
		if err != nil {
			t.Fatal(err)
		}
		if pick(g) {
			return g
		}
	}
	t.Fatal("no matching singleclock model in 500 seeds")
	return nil
}

// secondClock returns g's model re-printed with an extra clock added to the
// component that owns the original one, referenced by a vacuous guard
// conjunct so it survives lint. Two clocks make the model zone-ineligible
// while every strategy still samples it cleanly, so Check fails under
// exactly the zone oracle.
func secondClock(t *testing.T, g *modelgen.Generated) string {
	t.Helper()
	m, err := slim.Parse(g.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range m.ComponentImpls {
		hasClock := false
		for _, s := range impl.Subcomponents {
			if s.Data != nil && s.Data.Name == "clock" {
				hasClock = true
			}
		}
		if !hasClock {
			continue
		}
		for _, tr := range impl.Transitions {
			if tr.Guard == nil {
				continue
			}
			impl.Subcomponents = append(impl.Subcomponents, &slim.Subcomponent{
				Name: "yy", Data: &slim.DataType{Name: "clock"},
			})
			tr.Guard = &slim.BinExpr{Op: "and", L: tr.Guard, R: &slim.BinExpr{
				Op: "<",
				L:  &slim.RefExpr{Path: []string{"yy"}},
				R:  &slim.NumLit{Value: 1e6},
			}}
			return slim.Print(m)
		}
	}
	t.Fatal("model has no guarded transition next to its clock")
	return ""
}

// TestShrinkNewShapes pins the shrinker on the generator shapes introduced
// with the singleclock class: greedy shrinking of a failing multi-level
// hierarchy and of a failing error-propagation model must terminate and
// return a reproducer that still fails the same (zone) oracle.
func TestShrinkNewShapes(t *testing.T) {
	shapes := []struct {
		name string
		pick func(*modelgen.Generated) bool
	}{
		{"hierarchy", func(g *modelgen.Generated) bool {
			return g.Model.ComponentImpls["Cluster.Imp"] != nil
		}},
		{"propagation", func(g *modelgen.Generated) bool {
			for _, ei := range g.Model.ErrorImpls {
				for _, ev := range ei.Events {
					if ev.Kind == slim.ErrEventPropagation {
						return true
					}
				}
			}
			return false
		}},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			g := findSingleClock(t, shape.pick)
			src := secondClock(t, g)
			parsed, err := slim.Parse(src)
			if err != nil {
				t.Fatalf("tampered model does not parse: %v", err)
			}
			g2 := &modelgen.Generated{
				Class: g.Class, Seed: g.Seed,
				Model: parsed, Source: src,
				Goal: g.Goal, Bound: g.Bound,
			}
			d := Check(g2)
			if d == nil {
				t.Fatal("two-clock model did not fail any oracle")
			}
			if d.Oracle != "zone" {
				t.Fatalf("failed oracle %s (%s), want zone", d.Oracle, d.Detail)
			}
			shrunk := Shrink(d)
			if shrunk.Oracle != "zone" {
				t.Fatalf("shrinking changed the oracle from zone to %s", shrunk.Oracle)
			}
			if len(shrunk.Source) > len(d.Source) {
				t.Fatalf("shrinking grew the model: %d -> %d bytes",
					len(d.Source), len(shrunk.Source))
			}
			if verify := recheck(shrunk, shrunk.Source); verify == nil || verify.Oracle != "zone" {
				t.Fatal("shrunk reproducer does not fail the zone oracle anymore")
			}
		})
	}
}

// TestShrinkKeepsEngineFailure pins the shrinker on an engine-invariant
// failure: a generated continuous ramp that trips "invariant violated" under
// the maxtime strategy. Shrinking may only accept candidates that still fail
// with slimsim.ErrEngine; a candidate that deleted the goal's component
// fails under the goal oracle and is rejected.
func TestShrinkKeepsEngineFailure(t *testing.T) {
	g, err := modelgen.Generate(modelgen.Timed, 1792291155031506312)
	if err != nil {
		t.Fatal(err)
	}
	d := Check(g)
	if d == nil || d.Oracle != "engine" {
		t.Fatalf("seed no longer fails the engine oracle: %v", d)
	}
	shrunk := Shrink(d)
	if shrunk.Oracle != "engine" || !strings.Contains(shrunk.Detail, "invariant violated") {
		t.Fatalf("shrunk reproducer fails %s with %q, want an engine invariant violation", shrunk.Oracle, shrunk.Detail)
	}
	if len(shrunk.Source) > len(d.Source) {
		t.Fatalf("shrinking grew the model: %d -> %d bytes", len(d.Source), len(shrunk.Source))
	}
}

// TestShrinkKeepsGoalComponent pins the goal oracle on the shrinker: a
// discrepancy whose goal names a droppable component must shrink to a
// model that keeps that component and fails with the original message.
// Check resolves the goal before the exact oracle runs, so a candidate
// that drops the component fails under the goal oracle and is rejected,
// rather than failing CheckCTMC under the exact oracle and being accepted.
func TestShrinkKeepsGoalComponent(t *testing.T) {
	const notRare = "rare-event model is not rare"
	g, err := modelgen.Generate(modelgen.Markovian, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Checked as a rare-event model, a Markovian model with a likely goal
	// fails the exact oracle's rarity check: a stable discrepancy that
	// every reduction keeping the goal's component can preserve.
	g.Class = modelgen.RareEvent
	comp, _, ok := strings.Cut(g.Goal, ".")
	if !ok {
		t.Fatalf("goal %q names no component", g.Goal)
	}
	d := Check(g)
	if d == nil || d.Oracle != "exact" || !strings.HasPrefix(d.Detail, notRare) {
		t.Fatalf("Check = %v, want the exact oracle's %q", d, notRare)
	}
	shrunk := Shrink(d)
	if shrunk.Oracle != "exact" || !strings.HasPrefix(shrunk.Detail, notRare) {
		t.Fatalf("shrunk reproducer fails %s with %q, want exact with %q", shrunk.Oracle, shrunk.Detail, notRare)
	}
	if len(shrunk.Source) >= len(d.Source) {
		t.Fatalf("nothing shrank: %d -> %d bytes", len(d.Source), len(shrunk.Source))
	}
	parsed, err := slim.Parse(shrunk.Source)
	if err != nil {
		t.Fatal(err)
	}
	kept := false
	for _, s := range parsed.ComponentImpls[parsed.Root].Subcomponents {
		kept = kept || s.Name == comp
	}
	if !kept {
		t.Fatalf("shrinking dropped the goal's component %s:\n%s", comp, shrunk.Source)
	}
}
