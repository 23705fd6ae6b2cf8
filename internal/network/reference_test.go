package network

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"slimsim/internal/sta"
)

// referenceMoves is the allocating move enumerator the static move tables
// replaced, kept as the oracle Scratch.Moves must match: every unpruned τ
// transition of every process individually, every Markovian transition
// individually, and every combination of transitions sharing a
// synchronized action (one per participating process), read straight from
// the network's outgoing-transition index on every call.
//
// The guarded moves come first: the unrated τ moves in process and
// transition order, then the synchronized moves in action order. The
// Markovian moves follow in process and transition order.
func referenceMoves(rt *Runtime, st *State) (guarded, markovian []Move) {
	actions := make(map[string][]int)
	for pi, p := range rt.net.Processes {
		for a := range p.Alphabet {
			actions[a] = append(actions[a], pi)
		}
	}
	names := make([]string, 0, len(actions))
	for a := range actions {
		sort.Ints(actions[a])
		names = append(names, a)
	}
	sort.Strings(names)
	guarded = referenceTauMoves(rt, st, false)
	// Synchronized moves: for each action, the cross product of each
	// participating process's candidate transitions, the first process
	// varying slowest. cands holds the candidates of all participants
	// back to back, participant j's run ending at ends[j]; pos is the
	// odometer over the runs.
	for _, a := range names {
		procs := actions[a]
		var cands, ends, pos []int
		feasible := true
		for _, pi := range procs {
			p := rt.net.Processes[pi]
			pos = append(pos, len(cands))
			for _, ti := range p.Outgoing(st.Locs[pi]) {
				if p.Transitions[ti].Action == a && !rt.isPruned(pi, ti) {
					cands = append(cands, ti)
				}
			}
			if len(cands) == pos[len(pos)-1] {
				feasible = false
				break
			}
			ends = append(ends, len(cands))
		}
		if !feasible {
			continue
		}
		for {
			parts := make([]Part, 0, len(procs))
			for j, pi := range procs {
				parts = append(parts, Part{Proc: pi, Trans: cands[pos[j]]})
			}
			guarded = append(guarded, Move{Action: a, Parts: parts})
			j := len(procs) - 1
			for ; j >= 0; j-- {
				if pos[j]++; pos[j] < ends[j] {
					break
				}
				if j > 0 {
					pos[j] = ends[j-1]
				}
			}
			if j < 0 {
				break
			}
		}
	}
	return guarded, referenceTauMoves(rt, st, true)
}

// referenceTauMoves lists one single-part move per unpruned τ transition out
// of st's locations whose Markovian-ness is markovian, in process and
// transition order.
func referenceTauMoves(rt *Runtime, st *State, markovian bool) []Move {
	var moves []Move
	for pi, p := range rt.net.Processes {
		for _, ti := range p.Outgoing(st.Locs[pi]) {
			tr := &p.Transitions[ti]
			if tr.Action != sta.Tau || tr.Markovian() != markovian || rt.isPruned(pi, ti) {
				continue
			}
			moves = append(moves, Move{Action: sta.Tau, Parts: []Part{{Proc: pi, Trans: ti}}, Rate: tr.Rate})
		}
	}
	return moves
}

// referenceLabel renders a move's trace label from its parts, as every
// label was rendered before the runtime kept a label table.
func referenceLabel(rt *Runtime, m *Move) string {
	if len(m.Parts) == 0 {
		return m.Action
	}
	p := rt.net.Processes[m.Parts[0].Proc]
	tr := &p.Transitions[m.Parts[0].Trans]
	from := p.Locations[tr.From].Name
	to := p.Locations[tr.To].Name
	if m.Action == sta.Tau {
		return fmt.Sprintf("%s: %s -> %s", p.Name, from, to)
	}
	return fmt.Sprintf("%s (%d procs): %s: %s -> %s", m.Action, len(m.Parts), p.Name, from, to)
}

// CheckMoves composes st's move set into ms and compares it with the
// reference enumeration element for element (action, parts, rate), and
// every label with both Move.Label and the reference rendering.
func (rt *Runtime) CheckMoves(ms *MoveSet, st *State) error {
	rt.NewScratch().Moves(ms, st)
	guarded, markovian := referenceMoves(rt, st)
	for _, c := range []struct {
		kind  string
		got   []*Move
		want  []Move
		label func(int) string
	}{{"guarded", ms.Guarded, guarded, ms.Label}, {"Markovian", ms.Markovian, markovian, ms.MarkLabel}} {
		if len(c.got) != len(c.want) {
			return fmt.Errorf("state %s: %d %s moves, reference has %d", st.Key(), len(c.got), c.kind, len(c.want))
		}
		for i, want := range c.want {
			if !sameMove(c.got[i], &want) {
				return fmt.Errorf("state %s: %s move %d is %+v, reference has %+v", st.Key(), c.kind, i, *c.got[i], want)
			}
			if got, ref := c.label(i), referenceLabel(rt, &want); got != ref || want.Label(rt) != ref {
				return fmt.Errorf("state %s: %s move %d labelled %q (Move.Label %q), reference %q",
					st.Key(), c.kind, i, got, want.Label(rt), ref)
			}
		}
	}
	return nil
}

// sameMove reports whether two moves have the same action, parts and rate.
func sameMove(a, b *Move) bool {
	if a.Action != b.Action || a.Rate != b.Rate || len(a.Parts) != len(b.Parts) {
		return false
	}
	for j := range a.Parts {
		if a.Parts[j] != b.Parts[j] {
			return false
		}
	}
	return true
}

// CheckMovesOnEveryStep makes every ApplyInto and AdvanceInto of rt run
// CheckMoves on its successor, failing the step on a mismatch. One move set
// serves every check, so each composition reuses arenas another state
// filled. The returned counter counts the checked successors.
func (rt *Runtime) CheckMovesOnEveryStep() *atomic.Int64 {
	n := new(atomic.Int64)
	var mu sync.Mutex
	var ms MoveSet
	rt.stepHook = func(st *State) error {
		mu.Lock()
		defer mu.Unlock()
		n.Add(1)
		return rt.CheckMoves(&ms, st)
	}
	return n
}
