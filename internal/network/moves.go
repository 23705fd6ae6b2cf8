package network

import (
	"fmt"
	"sort"

	"slimsim/internal/sta"
)

// Move is a global discrete step: either a single process's internal or
// Markovian transition, or a synchronized vector of transitions sharing an
// action.
type Move struct {
	// Action is the shared label, or sta.Tau.
	Action string
	// Parts lists the participating (process, transition) pairs in
	// ascending process order.
	Parts []Part
	// Rate is positive for Markovian moves.
	Rate float64
}

// Part identifies one process's contribution to a move.
type Part struct {
	Proc  int
	Trans int // index into the process's Transitions
}

// Markovian reports whether the move fires after an exponential delay.
func (m *Move) Markovian() bool { return m.Rate > 0 }

// Label renders the move for traces. Labels come from a per-transition
// table the runtime builds on the first read, so runs that never read a
// label (no observer, no interactive strategy) never build it.
func (m *Move) Label(rt *Runtime) string {
	if len(m.Parts) == 0 {
		return m.Action
	}
	return rt.labels()[m.Parts[0].Proc][m.Parts[0].Trans]
}

// LabelTableBuilt reports whether some trace label has been read, which is
// what builds the runtime's label table.
func (rt *Runtime) LabelTableBuilt() bool { return rt.labelsBuilt.Load() }

// buildLabels renders the label of every transition. A synchronized move is
// labelled by its first part and the number of processes sharing its
// action, so one entry per transition covers every move.
func (rt *Runtime) buildLabels() [][]string {
	rt.labelsBuilt.Store(true)
	share := make(map[string]int)
	for _, p := range rt.net.Processes {
		for a := range p.Alphabet {
			share[a]++
		}
	}
	out := make([][]string, len(rt.net.Processes))
	for pi, p := range rt.net.Processes {
		out[pi] = make([]string, len(p.Transitions))
		for ti := range p.Transitions {
			tr := &p.Transitions[ti]
			from, to := p.Locations[tr.From].Name, p.Locations[tr.To].Name
			if tr.Action == sta.Tau {
				out[pi][ti] = fmt.Sprintf("%s: %s -> %s", p.Name, from, to)
			} else {
				out[pi][ti] = fmt.Sprintf("%s (%d procs): %s: %s -> %s", tr.Action, share[tr.Action], p.Name, from, to)
			}
		}
	}
	return out
}

// moveTables holds the candidate moves out of every process location. A
// state's candidates depend only on its processes' locations (guards are
// evaluated separately), and each candidate is one process's τ or
// Markovian transition out of its own location or a synchronized vector of
// such transitions, so Scratch.Moves composes a state's move set from
// these per-location lists. New builds the tables and Prune rebuilds them
// without the pruned transitions.
type moveTables struct {
	// tau and markov are indexed by locBase[process]+location: the
	// unrated τ and the Markovian moves out of the location, in
	// transition order.
	locBase     []int
	tau, markov [][]Move
	// tauProcs and markovProcs list, ascending, the processes that own
	// such moves.
	tauProcs, markovProcs []int
	// sync holds one table per action, in action name order.
	sync []syncTable
}

// syncTable holds the candidates of one synchronized action.
type syncTable struct {
	action string
	// procs lists the participating processes, ascending.
	procs []int
	// cands[j][l] lists the transitions of procs[j] on the action out of
	// location l, in transition order.
	cands [][][]int
}

// buildMoveTables (re)builds rt.moves from the network and the prune mask.
func (rt *Runtime) buildMoveTables() {
	procs := rt.net.Processes
	t := moveTables{locBase: make([]int, len(procs))}
	nloc, ntau := 0, 0
	for pi, p := range procs {
		t.locBase[pi] = nloc
		nloc += len(p.Locations)
		for ti := range p.Transitions {
			if p.Transitions[ti].Action == sta.Tau && !rt.isPruned(pi, ti) {
				ntau++
			}
		}
	}
	t.tau, t.markov = make([][]Move, nloc), make([][]Move, nloc)
	// Every τ move is a window of moves with its one part a window of
	// parts; both arrays are sized exactly, so no append reallocates.
	moves, parts := make([]Move, 0, ntau), make([]Part, 0, ntau)
	for _, markovian := range []bool{false, true} {
		table, owners := t.tau, &t.tauProcs
		if markovian {
			table, owners = t.markov, &t.markovProcs
		}
		for pi, p := range procs {
			owns := false
			for li := range p.Locations {
				start := len(moves)
				for _, ti := range p.Outgoing(sta.LocID(li)) {
					tr := &p.Transitions[ti]
					if tr.Action != sta.Tau || tr.Markovian() != markovian || rt.isPruned(pi, ti) {
						continue
					}
					parts = append(parts, Part{Proc: pi, Trans: ti})
					n := len(parts)
					moves = append(moves, Move{Action: sta.Tau, Parts: parts[n-1 : n : n], Rate: tr.Rate})
				}
				if n := len(moves); n > start {
					table[t.locBase[pi]+li] = moves[start:n:n]
					owns = true
				}
			}
			if owns {
				*owners = append(*owners, pi)
			}
		}
	}
	members := make(map[string][]int)
	for pi, p := range procs {
		for a := range p.Alphabet {
			members[a] = append(members[a], pi)
		}
	}
	names := make([]string, 0, len(members))
	for a := range members {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		st := syncTable{action: a, procs: members[a], cands: make([][][]int, len(members[a]))}
		sort.Ints(st.procs)
		for j, pi := range st.procs {
			p := procs[pi]
			st.cands[j] = make([][]int, len(p.Locations))
			// Each location's list is a capped window of flat: a later
			// reallocation leaves the earlier windows where they are.
			var flat []int
			for li := range p.Locations {
				start := len(flat)
				for _, ti := range p.Outgoing(sta.LocID(li)) {
					if p.Transitions[ti].Action == a && !rt.isPruned(pi, ti) {
						flat = append(flat, ti)
					}
				}
				if n := len(flat); n > start {
					st.cands[j][li] = flat[start:n:n]
				}
			}
		}
		t.sync = append(t.sync, st)
	}
	rt.moves = t
}

// MoveSet is the candidate move set of one state, composed by Scratch.Moves
// into storage the caller owns: reusing a set across calls makes
// composition allocation-free once its arenas have grown. Composing into
// the set again invalidates the moves it held, so a caller that recurses
// owns one set per depth.
type MoveSet struct {
	// Guarded holds the non-Markovian candidates the strategy chooses
	// among: the unrated τ moves by process and transition, then the
	// synchronized moves by action, each action's cross product with the
	// first participant varying slowest. Markovian holds the rated moves
	// that race by rate, by process and transition. The moves belong to
	// the runtime's tables or the set's arena: callers must not modify
	// them.
	Guarded   []*Move
	Markovian []*Move

	rt *Runtime
	// all backs Guarded and Markovian; sync and parts are the arena of
	// the synchronized moves; pos is the odometer over one action's
	// candidate lists.
	all   []*Move
	sync  []Move
	parts []Part
	pos   []int
}

// Label returns the trace label of Guarded[i].
func (ms *MoveSet) Label(i int) string { return ms.Guarded[i].Label(ms.rt) }

// MarkLabel returns the trace label of Markovian[i].
func (ms *MoveSet) MarkLabel(i int) string { return ms.Markovian[i].Label(ms.rt) }

// Moves composes the candidate moves of st into dst, ignoring guards (see
// MoveSet for the order). Guard truth is evaluated separately, at a delay,
// through Window or EnabledAt, so the candidates are purely structural.
func (s *Scratch) Moves(dst *MoveSet, st *State) {
	t := &s.rt.moves
	dst.rt = s.rt
	// The synchronized moves are composed first, so their arena is
	// complete before the set points into it.
	dst.sync, dst.parts = dst.sync[:0], dst.parts[:0]
	for i := range t.sync {
		dst.composeSync(&t.sync[i], st)
	}
	all := dst.all[:0]
	for _, pi := range t.tauProcs {
		ms := t.tau[t.locBase[pi]+int(st.Locs[pi])]
		for i := range ms {
			all = append(all, &ms[i])
		}
	}
	for i := range dst.sync {
		all = append(all, &dst.sync[i])
	}
	g := len(all)
	for _, pi := range t.markovProcs {
		ms := t.markov[t.locBase[pi]+int(st.Locs[pi])]
		for i := range ms {
			all = append(all, &ms[i])
		}
	}
	dst.all = all
	dst.Guarded, dst.Markovian = all[:g:g], all[g:]
}

// composeSync appends the synchronized moves of one action out of st to the
// arena: the cross product of every participant's candidates, none if some
// participant has none.
func (ms *MoveSet) composeSync(t *syncTable, st *State) {
	pos := ms.pos[:0]
	for j, pi := range t.procs {
		if len(t.cands[j][st.Locs[pi]]) == 0 {
			return
		}
		pos = append(pos, 0)
		ms.pos = pos
	}
	for {
		// Each move keeps a capacity-capped window of parts, so later
		// appends never write into a window, and a reallocation leaves
		// the earlier windows where they are.
		base := len(ms.parts)
		for j, pi := range t.procs {
			ms.parts = append(ms.parts, Part{Proc: pi, Trans: t.cands[j][st.Locs[pi]][pos[j]]})
		}
		n := len(ms.parts)
		ms.sync = append(ms.sync, Move{Action: t.action, Parts: ms.parts[base:n:n]})
		j := len(pos) - 1
		for ; j >= 0; j-- {
			if pos[j]++; pos[j] < len(t.cands[j][st.Locs[t.procs[j]]]) {
				break
			}
			pos[j] = 0
		}
		if j < 0 {
			return
		}
	}
}
