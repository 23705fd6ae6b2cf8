package network_test

import (
	"fmt"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/rng"
	"slimsim/internal/sim"
	"slimsim/internal/sta"
	"slimsim/internal/strategy"
)

// guardModel is one model of the guard-cache corpus with its property.
type guardModel struct {
	name  string
	load  func(t *testing.T) (*network.Runtime, expr.Expr)
	bound float64
}

// guardCorpus returns the dirty-flow corpus, the sensor filter at N=7 and
// syncFlowNet.
func guardCorpus(t *testing.T) []guardModel {
	t.Helper()
	var out []guardModel
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range append(dirtyCorpus(t), corpusModel{"sensorfilter/7", src, casestudy.SensorFilterGoal, 80}) {
		out = append(out, guardModel{cm.name, func(t *testing.T) (*network.Runtime, expr.Expr) { return loadCorpusModel(t, cm) }, cm.bound})
	}
	return append(out, guardModel{"syncflow", syncFlowNet, 10})
}

// Variable IDs of syncFlowNet.
const (
	sfX    expr.VarID = iota // written by b on "go"
	sfY                      // written by c on "go"
	sfN                      // written by a on "go"
	sfHits                   // written by d
	sfF                      // flow x + y
)

// syncFlowNet builds a three-party synchronization whose effects reach a
// fourth process's guards only through a flow: on "go", a counts n, b
// increments x and c increments y, and d's guards read the flow f = x + y.
// a, the first part of every "go" move, writes nothing f reads, so only the
// union over all parts, with flows expanded, forgets d's guards. The goal
// never holds; a path ends at its bound once n has reached 6.
func syncFlowNet(t *testing.T) (*network.Runtime, expr.Expr) {
	t.Helper()
	v := func(name string, id expr.VarID) expr.Expr { return expr.Var(name, id) }
	i := func(n int64) expr.Expr { return expr.Literal(expr.IntVal(n)) }
	inc := func(name string, id expr.VarID) []sta.Assignment {
		return []sta.Assignment{{Var: id, Name: name, Expr: expr.Bin(expr.OpAdd, v(name, id), i(1))}}
	}
	goOnly := map[string]struct{}{"go": {}}
	one := []sta.Location{{Name: "l"}}
	fMod := func(r int64) expr.Expr {
		return expr.Bin(expr.OpEq, expr.Bin(expr.OpMod, v("f", sfF), i(4)), i(r))
	}
	a := &sta.Process{Name: "a", Locations: one, Alphabet: goOnly, Vars: []expr.VarID{sfN},
		Transitions: []sta.Transition{{From: 0, To: 0, Action: "go",
			Guard: expr.Bin(expr.OpLt, v("n", sfN), i(6)), Effects: inc("n", sfN)}}}
	b := &sta.Process{Name: "b", Locations: one, Alphabet: goOnly, Vars: []expr.VarID{sfX},
		Transitions: []sta.Transition{{From: 0, To: 0, Action: "go", Effects: inc("x", sfX)}}}
	c := &sta.Process{Name: "c", Locations: one, Alphabet: goOnly, Vars: []expr.VarID{sfY},
		Transitions: []sta.Transition{{From: 0, To: 0, Action: "go", Effects: inc("y", sfY)}}}
	d := &sta.Process{Name: "d", Locations: []sta.Location{{Name: "d0"}, {Name: "d1"}}, Vars: []expr.VarID{sfHits},
		Transitions: []sta.Transition{
			{From: 0, To: 1, Action: sta.Tau, Guard: fMod(2), Effects: inc("hits", sfHits)},
			{From: 1, To: 0, Action: sta.Tau, Guard: fMod(0)},
		}}
	small := expr.IntRangeType(0, 9)
	net := &sta.Network{
		Processes: []*sta.Process{a, b, c, d},
		Vars: []sta.VarDecl{
			{Name: "x", Type: small, Init: expr.IntVal(0)},
			{Name: "y", Type: small, Init: expr.IntVal(0)},
			{Name: "n", Type: small, Init: expr.IntVal(0)},
			{Name: "hits", Type: small, Init: expr.IntVal(0)},
			{Name: "f", Type: expr.IntType(), Init: expr.IntVal(0), Flow: true,
				FlowExpr: expr.Bin(expr.OpAdd, v("x", sfX), v("y", sfY))},
		},
	}
	rt, err := network.New(net)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return rt, expr.Bin(expr.OpEq, v("hits", sfHits), i(9))
}

// TestGuardCacheCorpus is the corpus oracle of the guard cache: at every
// cached window evaluation, on sampled paths under all four strategies and
// on splitting branches restarted from promoted entry states, every valid
// bit must equal a fresh run of its guard on the current state. Each model
// runs unpruned and pruned by oracleMask. Every restart first samples a
// different path, so the pooled arena it reuses holds that path's bits.
func TestGuardCacheCorpus(t *testing.T) {
	compared := map[string]int64{}
	for _, gm := range guardCorpus(t) {
		for _, variant := range []string{"unpruned", "pruned"} {
			t.Run(gm.name+"/"+variant, func(t *testing.T) {
				rt, goal := gm.load(t)
				if variant == "pruned" {
					if err := rt.Prune(oracleMask(rt)); err != nil {
						t.Fatal(err)
					}
				}
				checked := rt.CheckGuardCacheOnEveryStep()
				for _, name := range []string{"asap", "progressive", "local", "maxtime"} {
					strat, err := strategy.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					eng, err := sim.NewEngine(rt, sim.Config{Strategy: strat, Property: prop.Reach(gm.bound, goal)})
					if err != nil {
						t.Fatal(err)
					}
					src := rng.New(7)
					for i := 0; i < 20; i++ {
						if _, err := eng.SamplePath(src); err != nil {
							t.Fatalf("%s path %d: %v", name, i, err)
						}
					}
					if err := restartBranches(rt, eng, src); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				compared[gm.name+"/"+variant] = checked.Load()
				t.Logf("compared %d cached guard values", checked.Load())
			})
		}
	}
	// Many generated models have no time-invariant guard, but these
	// consult theirs on every step.
	for _, name := range []string{"sensorfilter/3/unpruned", "sensorfilter/7/unpruned", "syncflow/unpruned", "syncflow/pruned"} {
		if compared[name] == 0 {
			t.Errorf("%s: no cached guard value was compared", name)
		}
	}
}

// restartBranches collects up to eight entry states from branches promoted
// one level above the initial state's, where the level is the sum of the
// location indices, then restarts a branch from each right after sampling
// a fresh path.
func restartBranches(rt *network.Runtime, eng *sim.Engine, src *rng.Source) error {
	level := func(locs []sta.LocID) int {
		sum := 0
		for _, l := range locs {
			sum += int(l)
		}
		return sum
	}
	init := rt.NewState()
	if err := rt.NewScratch().InitialStateInto(&init); err != nil {
		return err
	}
	var entries []network.State
	for i := 0; i < 40 && len(entries) < 8; i++ {
		promoted := rt.NewState()
		_, ok, err := eng.SampleBranch(src, nil, level(init.Locs)+1, level, &promoted)
		if err != nil {
			return fmt.Errorf("branch %d: %w", i, err)
		}
		if ok {
			entries = append(entries, promoted)
		}
	}
	for i := range entries {
		if _, err := eng.SamplePath(src); err != nil {
			return fmt.Errorf("path before restart %d: %w", i, err)
		}
		if _, _, err := eng.SampleBranch(src, &entries[i], sim.NoPromotion, level, nil); err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
	}
	return nil
}

// TestEnabledAtRepeatShare measures how much a guard cache could save the
// explicit CTMC builder on the sensor filter at N=6: the share of its
// EnabledAt guard evaluations that repeat the answer the parent state gave
// for the same guard, because the move leading to the state cannot change
// it. It mirrors the builder's exploration (resolve with memoization, then
// expansion of the non-goal tangible states in discovery order), checks
// that the mirror explores the builder's number of states, and logs the
// share; docs/PERFORMANCE.md records it.
func TestEnabledAtRepeatShare(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the N=6 state space twice")
	}
	src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(6))
	if err != nil {
		t.Fatal(err)
	}
	rt, goal := loadCorpusModel(t, corpusModel{"sensorfilter/6", src, casestudy.SensorFilterGoal, 0})
	built, err := ctmc.Build(rt, goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := &buildMirror{rt: rt, sc: rt.NewScratch(), goal: expr.CompileBool(goal), seen: map[string]bool{}, tangible: map[string]bool{}}
	init := rt.NewState()
	if err := m.sc.InitialStateInto(&init); err != nil {
		t.Fatal(err)
	}
	if err := m.resolve(&init, nil, nil); err != nil {
		t.Fatal(err)
	}
	for head := 0; head < len(m.queue); head++ {
		if err := m.expand(&m.queue[head]); err != nil {
			t.Fatal(err)
		}
	}
	if m.explored != built.Explored {
		t.Fatalf("mirror explored %d states, the builder %d", m.explored, built.Explored)
	}
	if m.calls == 0 {
		t.Fatal("no EnabledAt call")
	}
	t.Logf("explicit N=6: %d explored states, %d EnabledAt calls, %d (%.1f%%) repeat the parent's answer for a guard the fired move did not touch",
		m.explored, m.calls, m.repeats, 100*float64(m.repeats)/float64(m.calls))
}

// buildMirror re-explores a CTMC state space the way ctmc.Build does and
// counts its EnabledAt calls.
type buildMirror struct {
	rt       *network.Runtime
	sc       *network.Scratch
	goal     expr.BoolCode
	seen     map[string]bool // resolved states, the builder's memo
	tangible map[string]bool
	queue    []network.State // tangible states in discovery order

	explored, calls, repeats int
}

// resolve visits st, reached from a state whose guard answers parent holds
// by firing fired (both nil for the initial state), as the builder's
// resolve does.
func (m *buildMirror) resolve(st *network.State, parent map[network.Part]bool, fired *network.Move) error {
	key := st.Key()
	if m.seen[key] {
		return nil
	}
	m.seen[key] = true
	m.explored++
	answers, enabled, err := m.guards(st)
	if err != nil {
		return err
	}
	for p := range answers {
		m.calls++
		if _, ok := parent[p]; !ok {
			continue
		}
		if cached, stale := m.rt.GuardCached(p, fired); cached && !stale {
			m.repeats++
		}
	}
	if len(enabled) == 0 {
		if !m.tangible[key] {
			m.tangible[key] = true
			m.queue = append(m.queue, st.Clone())
		}
		return nil
	}
	for _, mv := range enabled {
		succ := m.rt.NewState()
		if err := m.sc.ApplyInto(&succ, st, mv); err != nil {
			return err
		}
		if err := m.resolve(&succ, answers, mv); err != nil {
			return err
		}
	}
	return nil
}

// expand fires every Markovian move of a non-goal tangible state.
func (m *buildMirror) expand(st *network.State) error {
	if g, err := m.goal(m.sc.Env(st)); err != nil || g {
		return err
	}
	answers, _, err := m.guards(st)
	if err != nil {
		return err
	}
	var ms network.MoveSet
	m.sc.Moves(&ms, st)
	for _, mv := range ms.Markovian {
		succ := m.rt.NewState()
		if err := m.sc.ApplyInto(&succ, st, mv); err != nil {
			return err
		}
		if err := m.resolve(&succ, answers, mv); err != nil {
			return err
		}
	}
	return nil
}

// guards evaluates the guarded moves of st, one EnabledAt call each, and
// returns the answers by part (every sensor-filter move has one part) and
// the enabled moves.
func (m *buildMirror) guards(st *network.State) (map[network.Part]bool, []*network.Move, error) {
	var ms network.MoveSet
	m.sc.Moves(&ms, st)
	answers := map[network.Part]bool{}
	var enabled []*network.Move
	for _, mv := range ms.Guarded {
		ok, err := m.sc.EnabledAt(st, mv)
		if err != nil {
			return nil, nil, err
		}
		if len(mv.Parts) != 1 {
			return nil, nil, fmt.Errorf("move %v has %d parts", mv.Action, len(mv.Parts))
		}
		answers[mv.Parts[0]] = ok
		if ok {
			enabled = append(enabled, mv)
		}
	}
	return answers, enabled, nil
}
