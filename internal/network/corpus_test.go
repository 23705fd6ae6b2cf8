package network_test

import (
	"fmt"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/modelgen"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/sim"
	"slimsim/internal/slim"
	"slimsim/internal/strategy"
	"slimsim/internal/symmetry"
)

// corpusModel is one model of the dirty-flow corpus with its property.
type corpusModel struct {
	name, src, goal string
	bound           float64
}

// dirtyCorpus returns five seeds of every modelgen class plus the launcher in
// both fault modes and the sensor filter at N=3.
func dirtyCorpus(t *testing.T) []corpusModel {
	t.Helper()
	var out []corpusModel
	for _, class := range modelgen.Classes {
		for seed := uint64(1); seed <= 5; seed++ {
			g, err := modelgen.Generate(class, seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, corpusModel{fmt.Sprintf("%s/%d", class, seed), g.Source, g.Goal, g.Bound})
		}
	}
	for _, mode := range []casestudy.FaultMode{casestudy.FaultsPermanent, casestudy.FaultsRecoverable} {
		src, err := casestudy.Launcher(casestudy.DefaultLauncher(mode))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusModel{fmt.Sprintf("launcher/%v", mode), src, casestudy.LauncherGoal, 1000})
	}
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(3))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, corpusModel{"sensorfilter/3", src, casestudy.SensorFilterGoal, 80})
}

func loadCorpusModel(t *testing.T, cm corpusModel) (*network.Runtime, expr.Expr) {
	t.Helper()
	parsed, err := slim.Parse(cm.src)
	if err != nil {
		t.Fatal(err)
	}
	built, err := model.Instantiate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := network.New(built.Net)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := built.CompileExpr(cm.goal)
	if err != nil {
		t.Fatal(err)
	}
	return rt, goal
}

// TestDirtyFlowsCorpus is the corpus oracle of dirty-flow propagation: on
// sampled paths under all four strategies, and over every state an explicit
// or quotient CTMC build discovers, each successor ApplyInto or AdvanceInto
// writes must equal a full re-propagation of a copy, bit for bit.
func TestDirtyFlowsCorpus(t *testing.T) {
	for _, cm := range dirtyCorpus(t) {
		t.Run(cm.name, func(t *testing.T) {
			rt, goal := loadCorpusModel(t, cm)
			checked := rt.CheckFlowsOnEveryStep()
			for _, name := range []string{"asap", "progressive", "local", "maxtime"} {
				strat, err := strategy.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := sim.NewEngine(rt, sim.Config{Strategy: strat, Property: prop.Reach(cm.bound, goal)})
				if err != nil {
					t.Fatal(err)
				}
				src := rng.New(7)
				for i := 0; i < 20; i++ {
					if _, err := eng.SamplePath(src); err != nil {
						t.Fatalf("%s path %d: %v", name, i, err)
					}
				}
			}
			if checked.Load() == 0 {
				t.Fatal("no successor was checked")
			}
			timed := false
			for _, d := range rt.Net().Vars {
				timed = timed || d.Type.Timed()
			}
			if timed {
				return
			}
			before := checked.Load()
			if _, err := ctmc.Build(rt, goal, 1<<16); err != nil {
				t.Fatalf("explicit build: %v", err)
			}
			if checked.Load() == before {
				t.Fatal("the explicit build checked no successor")
			}
			red := symmetry.Detect(rt)
			if red == nil {
				return
			}
			// The quotient also hands out permuted states: check them
			// after canonicalization, before they are keyed.
			c := red.NewCanonicalizer()
			var canonErr error
			canon := func(st *network.State) {
				c.Canon(st)
				if err := rt.CheckFlows(st); err != nil && canonErr == nil {
					canonErr = err
				}
			}
			if _, err := ctmc.BuildWith(rt, goal, 1<<16, ctmc.BuildOptions{Canon: canon}); err != nil {
				t.Fatalf("quotient build: %v", err)
			}
			if canonErr != nil {
				t.Fatalf("canonical state: %v", canonErr)
			}
		})
	}
}
