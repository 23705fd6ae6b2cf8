package network_test

import (
	"fmt"
	"testing"

	"slimsim/internal/absint"
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

// TestMovesMatchReference is the corpus oracle of the static move tables:
// for every state sampled paths under all four strategies visit, and every
// state an explicit or quotient CTMC build discovers, the composed move set
// must equal the reference enumeration element for element, labels
// included. Each model runs unpruned and pruned by oracleMask.
func TestMovesMatchReference(t *testing.T) {
	for _, cm := range dirtyCorpus(t) {
		for _, variant := range []string{"unpruned", "pruned"} {
			t.Run(cm.name+"/"+variant, func(t *testing.T) {
				rt, goal := loadCorpusModel(t, cm)
				if variant == "pruned" {
					if err := rt.Prune(oracleMask(rt)); err != nil {
						t.Fatal(err)
					}
				}
				var ms network.MoveSet
				init := rt.NewState()
				if err := rt.NewScratch().InitialStateInto(&init); err != nil {
					t.Fatal(err)
				}
				if err := rt.CheckMoves(&ms, &init); err != nil {
					t.Fatalf("initial state: %v", err)
				}
				checked := rt.CheckMovesOnEveryStep()
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
				// The quotient expands canonical states: check them
				// after canonicalization too.
				c := red.NewCanonicalizer()
				var canonErr error
				canon := func(st *network.State) {
					c.Canon(st)
					if err := rt.CheckMoves(&ms, st); err != nil && canonErr == nil {
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
}

// oracleMask is the prune mask of TestMovesMatchReference: the transitions
// abstract interpretation proves dead plus every third transition of each
// process. The oracle holds for any mask, and only a mask that removes
// candidates of visited states shows a move table that ignores it; the
// corpus models have few provably dead transitions.
func oracleMask(rt *network.Runtime) [][]bool {
	mask, _ := absint.Analyze(rt).PruneMask()
	procs := rt.Net().Processes
	if mask == nil {
		mask = make([][]bool, len(procs))
		for pi, p := range procs {
			mask[pi] = make([]bool, len(p.Transitions))
		}
	}
	for pi := range procs {
		for ti := 2; ti < len(mask[pi]); ti += 3 {
			mask[pi][ti] = true
		}
	}
	return mask
}

// TestLauncherFlowRuns counts the flow programs the recoverable launcher
// runs. The initial state is propagated once per runtime: the first
// InitialStateInto runs every flow and later calls, from any scratch, run
// none. A delay from it changes only the two PCDU energy levels, whose
// direct readers are the two power@nom flows; their values stay true, so
// the delay runs exactly those two, not the 51 flows downstream of energy.
func TestLauncherFlowRuns(t *testing.T) {
	src, err := casestudy.Launcher(casestudy.DefaultLauncher(casestudy.FaultsRecoverable))
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := loadCorpusModel(t, corpusModel{"launcher", src, casestudy.LauncherGoal, 1000})
	runs := rt.CountFlowRuns()
	flows := 0
	for _, d := range rt.Net().Vars {
		if d.Flow {
			flows++
		}
	}
	sc := rt.NewScratch()
	init, nxt := rt.NewState(), rt.NewState()
	if err := sc.InitialStateInto(&init); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != int64(flows) {
		t.Fatalf("first InitialStateInto ran %d flow programs, want all %d", got, flows)
	}
	for _, s := range []*network.Scratch{sc, rt.NewScratch()} {
		if err := s.InitialStateInto(&nxt); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load() - int64(flows); got != 0 {
		t.Fatalf("later InitialStateInto calls ran %d flow programs, want 0", got)
	}
	runs.Store(0)
	if err := sc.AdvanceInto(&nxt, &init, 1); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("a delay from the initial state ran %d flow programs, want 2", got)
	}
	if err := rt.CheckFlows(&nxt); err != nil {
		t.Error(err)
	}
}
