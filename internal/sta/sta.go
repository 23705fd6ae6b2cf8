// Package sta defines the formal model underlying SLIM specifications: a
// network of linear-hybrid stochastic timed automata (processes), as in
// Section II-E of the paper.
//
// A process P = (L, l0, I, Tr, Var, A, T) consists of a finite set of
// locations with Boolean invariant expressions over continuous variables,
// per-location constant derivatives (trajectory equations) for the
// continuous variables, and discrete transitions labeled with an action and
// either a Boolean guard or an exponential exit rate. Transitions with an
// exit rate must carry the internal action τ and originate in locations
// whose invariant is true — both well-formedness rules from the paper are
// enforced by Validate.
package sta

import (
	"fmt"
	"math"

	"slimsim/internal/expr"
)

// Tau is the reserved name of the internal action τ. Internal transitions
// never synchronize across processes.
const Tau = "τ"

// LocID indexes a location within a process.
type LocID int

// Assignment is a single effect `Var := Expr` applied when a transition
// fires.
type Assignment struct {
	Var  expr.VarID
	Name string // source-level name, for diagnostics and traces
	Expr expr.Expr
}

// Transition is a discrete transition of a process. Exactly one of Guard
// and Rate is meaningful: if Rate > 0 the transition is Markovian (fires
// after an exponentially distributed delay) and Guard must be nil;
// otherwise Guard (nil meaning `true`) must hold for the transition to be
// enabled.
type Transition struct {
	// From and To are the source and target locations.
	From, To LocID
	// Action is the synchronization label; Tau for internal
	// transitions.
	Action string
	// Guard enables the transition; nil means always enabled.
	Guard expr.Expr
	// Rate, when positive, makes this an exponential-delay transition.
	Rate float64
	// Effects are applied in order when the transition fires.
	Effects []Assignment
}

// Markovian reports whether the transition carries an exponential rate.
func (t *Transition) Markovian() bool { return t.Rate > 0 }

// Location is a control location of a process.
type Location struct {
	// Name is the source-level mode/state name.
	Name string
	// Invariant restricts the residence time; nil means `true`.
	Invariant expr.Expr
	// Rates maps continuous variables to their derivative while this
	// location is occupied. Variables not present default to the rate
	// implied by their type (1 for clocks, 0 otherwise).
	Rates map[expr.VarID]float64
	// Urgent locations do not allow time to pass.
	Urgent bool
}

// Process is a single automaton in the network.
type Process struct {
	// Name identifies the process (typically the component instance's
	// qualified name).
	Name string
	// Locations holds the control locations; index is the LocID.
	Locations []Location
	// Initial is the starting location.
	Initial LocID
	// Transitions is the process's discrete transition relation.
	Transitions []Transition
	// Vars lists the variables owned by this process (their IDs in the
	// global symbol table).
	Vars []expr.VarID
	// Alphabet is the set of non-τ actions this process participates
	// in. A network transition labeled a requires every process with a
	// in its alphabet to take an a-transition simultaneously.
	Alphabet map[string]struct{}

	// outgoing caches transition indices per source location.
	outgoing [][]int
}

// LocationByName returns the LocID of the named location.
func (p *Process) LocationByName(name string) (LocID, bool) {
	for i := range p.Locations {
		if p.Locations[i].Name == name {
			return LocID(i), true
		}
	}
	return 0, false
}

// Outgoing returns the indices into Transitions that leave loc. The slice
// is shared; callers must not modify it.
//
// The index is built lazily on first use, which is NOT safe for concurrent
// first calls; network.New builds it eagerly for every process so a
// validated Runtime can be shared across goroutines (the slimserve
// compiled-model cache relies on this; a -race test in internal/sim pins
// it).
func (p *Process) Outgoing(loc LocID) []int {
	if p.outgoing == nil {
		p.BuildIndex()
	}
	return p.outgoing[loc]
}

// BuildIndex (re)builds the outgoing-transition index. Constructors call
// it before a process is shared between goroutines; it must also be called
// after mutating Transitions.
func (p *Process) BuildIndex() {
	outgoing := make([][]int, len(p.Locations))
	for i := range p.Transitions {
		from := p.Transitions[i].From
		outgoing[from] = append(outgoing[from], i)
	}
	p.outgoing = outgoing
}

// Validate checks the process's well-formedness rules:
//
//   - location and transition indices are in range;
//   - rate transitions carry τ and have positive rate;
//   - a location's outgoing transitions are all guarded or all Markovian
//     (the paper's "guard xor exit rate per location" rule);
//   - locations with Markovian exits have invariant `true` (nil);
//   - urgent locations have no Markovian exits (zero residence time would
//     make the race degenerate).
func (p *Process) Validate() error {
	if len(p.Locations) == 0 {
		return fmt.Errorf("sta: process %s has no locations", p.Name)
	}
	if p.Initial < 0 || int(p.Initial) >= len(p.Locations) {
		return fmt.Errorf("sta: process %s initial location %d out of range", p.Name, p.Initial)
	}
	kind := make(map[LocID]bool) // true = Markovian exits seen
	seen := make(map[LocID]bool)
	for i := range p.Transitions {
		t := &p.Transitions[i]
		if t.From < 0 || int(t.From) >= len(p.Locations) ||
			t.To < 0 || int(t.To) >= len(p.Locations) {
			return fmt.Errorf("sta: process %s transition %d has out-of-range endpoints", p.Name, i)
		}
		if t.Rate < 0 || math.IsNaN(t.Rate) || math.IsInf(t.Rate, 1) {
			return fmt.Errorf("sta: process %s transition %d has invalid rate %g", p.Name, i, t.Rate)
		}
		if t.Markovian() {
			if t.Action != Tau {
				return fmt.Errorf("sta: process %s transition %d has rate %g but non-internal action %q",
					p.Name, i, t.Rate, t.Action)
			}
			if t.Guard != nil {
				return fmt.Errorf("sta: process %s transition %d combines guard and rate", p.Name, i)
			}
		}
		if seen[t.From] && kind[t.From] != t.Markovian() {
			return fmt.Errorf("sta: process %s location %s mixes guarded and Markovian transitions",
				p.Name, p.Locations[t.From].Name)
		}
		seen[t.From] = true
		kind[t.From] = t.Markovian()
	}
	for loc, markovian := range kind {
		if !markovian {
			continue
		}
		if p.Locations[loc].Invariant != nil {
			return fmt.Errorf("sta: process %s location %s has Markovian exits but a non-trivial invariant",
				p.Name, p.Locations[loc].Name)
		}
		if p.Locations[loc].Urgent {
			return fmt.Errorf("sta: process %s location %s is urgent but has Markovian exits",
				p.Name, p.Locations[loc].Name)
		}
	}
	for a := range p.Alphabet {
		if a == Tau {
			return fmt.Errorf("sta: process %s lists τ in its alphabet", p.Name)
		}
	}
	return nil
}

// Network is a parallel composition of processes synchronizing on shared
// alphabets, together with the global variable symbol table.
type Network struct {
	// Processes are the component automata.
	Processes []*Process
	// Vars is the global symbol table; index is the expr.VarID.
	Vars []VarDecl
}

// VarDecl declares a global variable of the composed system.
type VarDecl struct {
	// Name is the fully qualified source name (e.g. "gps.x").
	Name string
	// Type is the declared type.
	Type expr.Type
	// Init is the initial value.
	Init expr.Value
	// Flow marks a variable whose value is recomputed from FlowExpr
	// when a variable it reads changes (a data-port output). Flow
	// variables cannot be assigned by effects.
	Flow bool
	// FlowExpr is the defining expression for flow variables.
	FlowExpr expr.Expr
}

// Validate checks each process plus network-level rules: variable IDs in
// range, initial values admitted by the declared types, and flow variables
// acyclic (checked structurally by followable dependency order elsewhere;
// here only self-reference is rejected).
func (n *Network) Validate() error {
	if len(n.Processes) == 0 {
		return fmt.Errorf("sta: network has no processes")
	}
	for i, d := range n.Vars {
		if !d.Type.Admits(d.Init) {
			return fmt.Errorf("sta: variable %s: initial value %s not admitted by type %s",
				d.Name, d.Init, d.Type)
		}
		if d.Flow && d.FlowExpr == nil {
			return fmt.Errorf("sta: flow variable %s has no defining expression", d.Name)
		}
		if d.Flow {
			if _, self := expr.Refs(d.FlowExpr)[expr.VarID(i)]; self {
				return fmt.Errorf("sta: flow variable %s depends on itself", d.Name)
			}
		}
	}
	names := make(map[string]struct{}, len(n.Processes))
	for _, p := range n.Processes {
		if err := p.Validate(); err != nil {
			return err
		}
		if _, dup := names[p.Name]; dup {
			return fmt.Errorf("sta: duplicate process name %s", p.Name)
		}
		names[p.Name] = struct{}{}
		for _, v := range p.Vars {
			if v < 0 || int(v) >= len(n.Vars) {
				return fmt.Errorf("sta: process %s owns out-of-range variable id %d", p.Name, v)
			}
		}
	}
	return nil
}

// VarByName returns the ID of the named global variable.
func (n *Network) VarByName(name string) (expr.VarID, bool) {
	for i := range n.Vars {
		if n.Vars[i].Name == name {
			return expr.VarID(i), true
		}
	}
	return expr.NoVar, false
}

// DeclMap returns an expr.Decls view of the symbol table for static checks.
func (n *Network) DeclMap() expr.DeclMap {
	m := make(expr.DeclMap, len(n.Vars))
	for i := range n.Vars {
		m[expr.VarID(i)] = n.Vars[i].Type
	}
	return m
}
