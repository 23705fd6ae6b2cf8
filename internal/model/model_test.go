package model

import (
	"math"
	"strings"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/slim"
)

func mustBuild(t *testing.T, src string) *Built {
	t.Helper()
	m, err := slim.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b, err := Instantiate(m)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	return b
}

// movesOf composes st's move set into a fresh set.
func movesOf(sc *network.Scratch, st *network.State) *network.MoveSet {
	var ms network.MoveSet
	sc.Moves(&ms, st)
	return &ms
}

// mustStart builds b's runtime and returns it with a scratch and the
// initial state.
func mustStart(t *testing.T, b *Built) (*network.Runtime, *network.Scratch, network.State) {
	t.Helper()
	rt, err := network.New(b.Net)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	sc := rt.NewScratch()
	st := rt.NewState()
	if err := sc.InitialStateInto(&st); err != nil {
		t.Fatalf("InitialStateInto: %v", err)
	}
	return rt, sc, st
}

const gpsSrc = `
system GPS
features
  activate: in event port;
  measurement: out data port bool default false;
end GPS;

system implementation GPS.Imp
subcomponents
  x: data clock;
modes
  acquisition: initial mode while x <= 2 min;
  active: mode;
transitions
  acquisition -[activate when x >= 10 sec then measurement := true]-> active;
end GPS.Imp;

root GPS.Imp;
`

func TestInstantiateGPS(t *testing.T) {
	b := mustBuild(t, gpsSrc)
	rt, sc, st := mustStart(t, b)

	// Variables: measurement, x, @mode.
	if _, ok := b.lookupVar("measurement"); !ok {
		t.Error("measurement variable missing")
	}
	if _, ok := b.lookupVar("x"); !ok {
		t.Error("clock x missing")
	}
	if _, ok := b.lookupVar("@mode"); !ok {
		t.Error("@mode variable missing")
	}

	// Invariant bounds the acquisition mode to 120 s.
	d, _, _, err := sc.MaxDelay(&st)
	if err != nil {
		t.Fatalf("MaxDelay: %v", err)
	}
	if d != 120 {
		t.Errorf("max delay = %v, want 120", d)
	}

	// The activate transition is enabled from 10 s.
	cm := movesOf(sc, &st)
	if len(cm.Guarded) != 1 || len(cm.Markovian) != 0 {
		t.Fatalf("moves = %d guarded, %d Markovian, want 1 guarded", len(cm.Guarded), len(cm.Markovian))
	}
	activate := cm.Guarded[0]
	w, err := sc.Window(&st, activate, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Contains(9) || !w.Contains(10) || !w.Contains(120) {
		t.Errorf("activate window = %v, want [10, ...]", w)
	}

	// Firing it sets measurement and @mode.
	st2, st3 := rt.NewState(), rt.NewState()
	if err := sc.AdvanceInto(&st2, &st, 15); err != nil {
		t.Fatal(err)
	}
	if err := sc.ApplyInto(&st3, &st2, activate); err != nil {
		t.Fatal(err)
	}
	mID, _ := b.lookupVar("measurement")
	modeID, _ := b.lookupVar("@mode")
	if !st3.Vals[mID].Bool() {
		t.Error("measurement not set")
	}
	if st3.Vals[modeID].Int() != 1 {
		t.Errorf("@mode = %v, want 1 (active)", st3.Vals[modeID])
	}

	// CompileExpr resolves names and mode predicates from the root.
	goal, err := b.CompileExpr("measurement and root in modes (active)")
	if err == nil {
		_ = goal
		t.Error("root path should not resolve as subcomponent; property uses bare in modes")
	}
	goal, err = b.CompileExpr("measurement")
	if err != nil {
		t.Fatalf("CompileExpr: %v", err)
	}
	ok, err := expr.CompileBool(goal)(sc.Env(&st3))
	if err != nil || !ok {
		t.Errorf("goal after activation = (%v, %v), want true", ok, err)
	}
}

const sensorFilterSrc = `
device Sensor
features
  reading: out data port int[0..9] default 1;
end Sensor;

device implementation Sensor.Imp
modes
  on: initial mode;
transitions
  on -[when reading < 5 then reading := reading + 1]-> on;
end Sensor.Imp;

device Filter
features
  input: in data port int default 0;
  output: out data port int default 0;
end Filter;

device implementation Filter.Imp
modes
  run: initial mode;
transitions
  run -[when output != input * 2 then output := input * 2]-> run;
end Filter.Imp;

system Platform
end Platform;

system implementation Platform.Imp
subcomponents
  s: device Sensor.Imp;
  f: device Filter.Imp;
connections
  data port s.reading -> f.input;
end Platform.Imp;

root Platform.Imp;
`

func TestDataConnectionFlows(t *testing.T) {
	b := mustBuild(t, sensorFilterSrc)
	rt, sc, st := mustStart(t, b)
	inID, ok := b.lookupVar("f.input")
	if !ok {
		t.Fatal("f.input missing")
	}
	if got := st.Vals[inID].Int(); got != 1 {
		t.Errorf("initial f.input = %v, want 1 (flows from s.reading)", got)
	}
	// Firing the sensor's increment propagates through the connection.
	moves := movesOf(sc, &st).Guarded
	var sensorMove *network.Move
	for i := range moves {
		if enabled, _ := sc.EnabledAt(&st, moves[i]); enabled {
			if moves[i].Label(rt)[0] == 's' {
				sensorMove = moves[i]
				break
			}
		}
	}
	if sensorMove == nil {
		t.Fatal("sensor move not found")
	}
	st2 := rt.NewState()
	if err := sc.ApplyInto(&st2, &st, sensorMove); err != nil {
		t.Fatal(err)
	}
	if got := st2.Vals[inID].Int(); got != 2 {
		t.Errorf("f.input after sensor step = %v, want 2", got)
	}
}

const syncSrc = `
device Sender
features
  go: out event port;
end Sender;

device implementation Sender.Imp
modes
  idle: initial mode;
  sent: mode;
transitions
  idle -[go]-> sent;
end Sender.Imp;

device Receiver
features
  trigger: in event port;
end Receiver;

device implementation Receiver.Imp
modes
  wait: initial mode;
  got: mode;
transitions
  wait -[trigger]-> got;
end Receiver.Imp;

system Net
end Net;

system implementation Net.Imp
subcomponents
  a: device Sender.Imp;
  b: device Receiver.Imp;
connections
  event port a.go -> b.trigger;
end Net.Imp;

root Net.Imp;
`

func TestEventConnectionSynchronizes(t *testing.T) {
	b := mustBuild(t, syncSrc)
	rt, sc, st := mustStart(t, b)
	cm := movesOf(sc, &st)
	if len(cm.Guarded) != 1 || len(cm.Markovian) != 0 {
		t.Fatalf("moves = %d guarded, %d Markovian, want exactly 1 synchronized move", len(cm.Guarded), len(cm.Markovian))
	}
	if len(cm.Guarded[0].Parts) != 2 {
		t.Fatalf("parts = %d, want 2 (sender and receiver)", len(cm.Guarded[0].Parts))
	}
	st2 := rt.NewState()
	if err := sc.ApplyInto(&st2, &st, cm.Guarded[0]); err != nil {
		t.Fatal(err)
	}
	aMode, _ := b.lookupVar("a.@mode")
	bMode, _ := b.lookupVar("b.@mode")
	if st2.Vals[aMode].Int() != 1 || st2.Vals[bMode].Int() != 1 {
		t.Errorf("modes after sync = %v/%v, want 1/1", st2.Vals[aMode], st2.Vals[bMode])
	}
}

const errorSrc = `
device Unit
features
  out_ok: out data port bool default true;
end Unit;

device implementation Unit.Imp
modes
  run: initial mode;
end Unit.Imp;

system S
end S;

system implementation S.Imp
subcomponents
  u: device Unit.Imp;
end S.Imp;

error model Fail
states
  ok: initial state;
  transient: state;
  dead: state;
end Fail;

error model implementation Fail.Imp
events
  glitch: error event occurrence poisson 0.1;
  crash: error event occurrence poisson 0.02;
  repair: error event;
transitions
  ok -[glitch]-> transient;
  ok -[crash]-> dead;
  transient -[repair after 2 .. 3]-> ok;
end Fail.Imp;

root S.Imp;

extend u with Fail.Imp {
  inject transient: out_ok := false;
  inject dead: out_ok := false;
}
`

func TestModelExtension(t *testing.T) {
	b := mustBuild(t, errorSrc)
	rt, sc, st := mustStart(t, b)

	// The injected variable keeps its public name; the nominal value is
	// shadowed.
	okID, ok := b.lookupVar("u.out_ok")
	if !ok {
		t.Fatal("u.out_ok missing")
	}
	if _, ok := b.lookupVar("u.out_ok@nom"); !ok {
		t.Fatal("u.out_ok@nom (nominal shadow) missing")
	}
	if !st.Vals[okID].Bool() {
		t.Error("out_ok should start true")
	}

	// Drive the error process into transient via its Markovian move.
	moves := movesOf(sc, &st).Markovian
	var glitch *network.Move
	for i := range moves {
		if math.Abs(moves[i].Rate-0.1) < 1e-12 {
			glitch = moves[i]
		}
	}
	if glitch == nil {
		t.Fatalf("glitch move not found in %d Markovian moves", len(moves))
	}
	st2 := rt.NewState()
	if err := sc.ApplyInto(&st2, &st, glitch); err != nil {
		t.Fatal(err)
	}
	if st2.Vals[okID].Bool() {
		t.Error("out_ok should be false while transient (injection active)")
	}

	// The repair window is [2,3] after entering transient.
	moves2 := movesOf(sc, &st2).Guarded
	if len(moves2) == 0 {
		t.Fatal("repair move not found")
	}
	repair := moves2[len(moves2)-1]
	w, err := sc.Window(&st2, repair, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Contains(1.9) || !w.Contains(2) || !w.Contains(3) || w.Contains(3.1) {
		t.Errorf("repair window = %v, want [2,3]", w)
	}
	// Invariant forces the state to be left by 3.
	d, _, _, err := sc.MaxDelay(&st2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("max delay in transient = %v, want 3", d)
	}

	// Recovery restores the nominal value.
	st3, st4 := rt.NewState(), rt.NewState()
	if err := sc.AdvanceInto(&st3, &st2, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := sc.ApplyInto(&st4, &st3, repair); err != nil {
		t.Fatal(err)
	}
	if !st4.Vals[okID].Bool() {
		t.Error("out_ok should recover after repair")
	}

	// The error-state predicate compiles from the root scope.
	goal, err := b.CompileExpr("u.@err in modes (dead) or not u.out_ok")
	if err != nil {
		t.Fatalf("CompileExpr: %v", err)
	}
	okv, err := expr.CompileBool(goal)(sc.Env(&st2))
	if err != nil || !okv {
		t.Errorf("predicate in transient = (%v,%v), want true", okv, err)
	}
}

func TestInstantiateErrors(t *testing.T) {
	tests := []struct {
		name, src, substr string
	}{
		{
			"missing root impl",
			"system A\nend A;\nroot A.I;",
			"not declared",
		},
		{
			"recursive",
			`system A
end A;
system implementation A.I
subcomponents
  x: system A.I;
end A.I;
root A.I;`,
			"recursive",
		},
		{
			"no initial mode",
			`system A
end A;
system implementation A.I
modes
  m: mode;
end A.I;
root A.I;`,
			"no initial mode",
		},
		{
			"unknown mode in transition",
			`system A
end A;
system implementation A.I
modes
  m: initial mode;
transitions
  m -[]-> zzz;
end A.I;
root A.I;`,
			"unknown mode",
		},
		{
			"unknown variable",
			`system A
end A;
system implementation A.I
modes
  m: initial mode;
transitions
  m -[when ghost > 0]-> m;
end A.I;
root A.I;`,
			"unknown data element",
		},
		{
			"no modes anywhere",
			`system A
end A;
system implementation A.I
end A.I;
root A.I;`,
			"nothing to simulate",
		},
		{
			"injection into unknown state",
			`system A
features
  p: out data port bool default true;
end A;
system implementation A.I
modes
  m: initial mode;
end A.I;
error model E
states
  s: initial state;
end E;
error model implementation E.I
end E.I;
root A.I;
extend root with E.I {
  inject zzz: p := false;
}`,
			"no state",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := slim.Parse(tt.src)
			if err == nil {
				_, err = Instantiate(m)
			}
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q does not mention %q", err, tt.substr)
			}
		})
	}
}

func TestModeDependentConnection(t *testing.T) {
	src := `
device Src
features
  v: out data port int default 7;
end Src;
device implementation Src.Imp
end Src.Imp;

system S
end S;
system implementation S.Imp
subcomponents
  a: device Src.Imp;
  sink: data int default 0;
connections
  data port a.v -> own_in in modes (m2);
modes
  m1: initial mode;
  m2: mode;
transitions
  m1 -[]-> m2;
end S.Imp;
root S.Imp;
`
	// own_in must be declared as a feature of S for the connection to
	// resolve; rewrite with a proper in port.
	src = strings.Replace(src, "system S\nend S;", `system S
features
  own_in: in data port int default 0;
end S;`, 1)
	b := mustBuild(t, src)
	rt, sc, st := mustStart(t, b)
	inID, _ := b.lookupVar("own_in")
	if got := st.Vals[inID].Int(); got != 0 {
		t.Errorf("own_in in m1 = %v, want default 0 (connection inactive)", got)
	}
	st2 := rt.NewState()
	if err := sc.ApplyInto(&st2, &st, movesOf(sc, &st).Guarded[0]); err != nil {
		t.Fatal(err)
	}
	if got := st2.Vals[inID].Int(); got != 7 {
		t.Errorf("own_in in m2 = %v, want 7 (connection active)", got)
	}
}

const computedSrc = `
device Power
features
  level: out data port real default 10.0;
  avail: out data port bool := level > 2.0;
end Power;
device implementation Power.Imp
subcomponents
  energy: data continuous default 10.0;
modes
  on: initial mode while energy >= 0.0 derive energy' = -1.0;
transitions
  on -[when energy <= 0.0 then level := 0.0]-> on;
end Power.Imp;

system S
end S;
system implementation S.Imp
subcomponents
  p: device Power.Imp;
end S.Imp;
root S.Imp;
`

func TestComputedPort(t *testing.T) {
	// Replace level with the continuous energy directly via a computed
	// expression: avail := energy > 2.
	src := strings.Replace(computedSrc, "avail: out data port bool := level > 2.0;",
		"avail: out data port bool := energy > 2.0;", 1)
	// The computed expression references an implementation subcomponent,
	// which lives in the same scope.
	b := mustBuild(t, src)
	rt, sc, st := mustStart(t, b)
	availID, ok := b.lookupVar("p.avail")
	if !ok {
		t.Fatal("p.avail missing")
	}
	if !st.Vals[availID].Bool() {
		t.Error("avail should start true at energy 10")
	}
	st2 := rt.NewState()
	if err := sc.AdvanceInto(&st2, &st, 9); err != nil {
		t.Fatal(err)
	}
	if st2.Vals[availID].Bool() {
		t.Error("avail should be false at energy 1")
	}
}

func TestComputedPortCannotBeConnectionTarget(t *testing.T) {
	src := `
device A
features
  v: out data port int := 1 + 1;
end A;
device implementation A.Imp
modes
  m: initial mode;
end A.Imp;
device B
features
  w: out data port int default 0;
end B;
device implementation B.Imp
modes
  m: initial mode;
end B.Imp;
system S
end S;
system implementation S.Imp
subcomponents
  a: device A.Imp;
  b: device B.Imp;
connections
  data port b.w -> a.v;
end S.Imp;
root S.Imp;
`
	m, err := slim.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instantiate(m); err == nil || !strings.Contains(err.Error(), "connection target") {
		t.Errorf("expected connection-target error, got %v", err)
	}
}
