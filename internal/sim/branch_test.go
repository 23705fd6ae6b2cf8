package sim

import (
	"fmt"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/modelgen"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/slim"
	"slimsim/internal/strategy"
)

// sourceModel is a SLIM model with a reachability property.
type sourceModel struct {
	name, src, goal string
	bound           float64
}

// pathCorpus returns the launcher in both fault modes, the sensor filter at
// N=3 and three seeds of every modelgen class.
func pathCorpus(t *testing.T) []sourceModel {
	t.Helper()
	var out []sourceModel
	for _, mode := range []casestudy.FaultMode{casestudy.FaultsPermanent, casestudy.FaultsRecoverable} {
		src, err := casestudy.Launcher(casestudy.DefaultLauncher(mode))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sourceModel{fmt.Sprintf("launcher/%v", mode), src, casestudy.LauncherGoal, 1000})
	}
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(3))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, sourceModel{"sensorfilter/3", src, casestudy.SensorFilterGoal, 80})
	for _, class := range modelgen.Classes {
		for seed := uint64(1); seed <= 3; seed++ {
			g, err := modelgen.Generate(class, seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sourceModel{fmt.Sprintf("%s/%d", class, seed), g.Source, g.Goal, g.Bound})
		}
	}
	return out
}

// load compiles the model and its goal.
func (sm sourceModel) load(t *testing.T) (*network.Runtime, expr.Expr) {
	t.Helper()
	parsed, err := slim.Parse(sm.src)
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
	goal, err := built.CompileExpr(sm.goal)
	if err != nil {
		t.Fatal(err)
	}
	return rt, goal
}

// TestUnpromotedBranchIsSamplePath pins that a branch from the initial
// state that can never be promoted is a plain path: on equal streams it
// reaches the same verdict after the same steps, ends at the same time for
// the same reason, and leaves the stream at the same place.
func TestUnpromotedBranchIsSamplePath(t *testing.T) {
	for _, sm := range pathCorpus(t) {
		t.Run(sm.name, func(t *testing.T) {
			rt, goal := sm.load(t)
			for _, name := range []string{"asap", "progressive", "local", "maxtime"} {
				strat, err := strategy.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := NewEngine(rt, Config{Strategy: strat, Property: prop.Reach(sm.bound, goal)})
				if err != nil {
					t.Fatal(err)
				}
				a, b := rng.New(11), rng.New(11)
				for i := 0; i < 20; i++ {
					want, werr := eng.SamplePath(a)
					got, promoted, gerr := eng.SampleBranch(b, nil, NoPromotion, nil, nil)
					if fmt.Sprint(werr) != fmt.Sprint(gerr) {
						t.Fatalf("%s path %d: SamplePath error %v, SampleBranch error %v", name, i, werr, gerr)
					}
					if promoted || got != want {
						t.Fatalf("%s path %d: SampleBranch %+v (promoted %v), SamplePath %+v", name, i, got, promoted, want)
					}
					if a.Uint64() != b.Uint64() {
						t.Fatalf("%s path %d: the streams diverged", name, i)
					}
				}
			}
		})
	}
}
