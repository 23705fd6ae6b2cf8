package intervals

import "math"

// Arena is append-only backing for the sets one computation builds, such as
// the guard, invariant and clip windows of one simulation step. Each set it
// returns is a capacity-limited sub-slice of the arena, so sets stay
// immutable: no later operation can append into them. When the arena runs
// out of room it moves to new backing and leaves the old one alone, so sets
// built earlier stay valid; only Reset lets the arena overwrite them.
//
// A nil *Arena allocates fresh backing for every set, which is how the Set
// methods call the operations. An Arena must only be used by one goroutine
// at a time.
type Arena struct {
	buf []Interval
}

// minArena is the interval count of an arena's first backing.
const minArena = 16

// Reset lets the arena reuse its backing. Every set built in it since the
// last Reset becomes invalid, so the owner of those sets' lifetime calls it
// once none of them is read any more.
func (a *Arena) Reset() { a.buf = a.buf[:0] }

// Cap returns the number of intervals the current backing holds.
func (a *Arena) Cap() int { return cap(a.buf) }

// grab returns empty backing with room for at least n intervals; keep
// commits what the caller appended to it. For a nil arena it allocates.
func (a *Arena) grab(n int) []Interval {
	if a == nil {
		return make([]Interval, 0, n)
	}
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]Interval, 0, max(2*cap(a.buf), n, minArena))
	}
	return a.buf[len(a.buf):len(a.buf)]
}

// keep turns out, filled from the backing grab returned, into a set and
// marks its intervals used.
func (a *Arena) keep(out []Interval) Set {
	if len(out) == 0 {
		return Set{}
	}
	if a != nil {
		a.buf = a.buf[:len(a.buf)+len(out)]
	}
	return Set{ivs: out[:len(out):len(out)]}
}

// Of returns the set containing exactly iv.
func (a *Arena) Of(iv Interval) Set {
	if iv.Empty() {
		return Set{}
	}
	return a.keep(append(a.grab(1), iv))
}

// Union returns the union of s and t.
func (a *Arena) Union(s, t Set) Set {
	if s.Empty() || t.Full() {
		return t
	}
	if t.Empty() || s.Full() {
		return s
	}
	merged := a.grab(len(s.ivs) + len(t.ivs))
	i, j := 0, 0
	for i < len(s.ivs) || j < len(t.ivs) {
		var next Interval
		switch {
		case i == len(s.ivs):
			next, j = t.ivs[j], j+1
		case j == len(t.ivs):
			next, i = s.ivs[i], i+1
		case lessStart(s.ivs[i], t.ivs[j]):
			next, i = s.ivs[i], i+1
		default:
			next, j = t.ivs[j], j+1
		}
		if n := len(merged); n > 0 && touchesOrOverlaps(merged[n-1], next) {
			merged[n-1] = join(merged[n-1], next)
		} else {
			merged = append(merged, next)
		}
	}
	return a.keep(merged)
}

// Intersect returns the intersection of s and t.
func (a *Arena) Intersect(s, t Set) Set {
	if s.Empty() || t.Full() {
		return s
	}
	if t.Empty() || s.Full() {
		return t
	}
	// Each step of the merge consumes one interval of s or t, and the
	// last step yields the last possible piece.
	out := a.grab(len(s.ivs) + len(t.ivs) - 1)
	i, j := 0, 0
	for i < len(s.ivs) && j < len(t.ivs) {
		iv := s.ivs[i].Intersect(t.ivs[j])
		if !iv.Empty() {
			out = append(out, iv)
		}
		// Advance whichever interval ends first.
		if endsBefore(s.ivs[i], t.ivs[j]) {
			i++
		} else {
			j++
		}
	}
	return a.keep(out)
}

// Complement returns the complement of s with respect to the real line.
func (a *Arena) Complement(s Set) Set {
	if s.Empty() {
		return FullSet()
	}
	if s.Full() {
		return Set{}
	}
	out := a.grab(len(s.ivs) + 1)
	cursorLo := math.Inf(-1)
	cursorOpen := true // infinite endpoints are open
	for _, iv := range s.ivs {
		gap := Interval{Lo: cursorLo, LoOpen: cursorOpen, Hi: iv.Lo, HiOpen: !iv.LoOpen}
		if !gap.Empty() {
			out = append(out, gap)
		}
		cursorLo, cursorOpen = iv.Hi, !iv.HiOpen
	}
	tail := Interval{Lo: cursorLo, LoOpen: cursorOpen, Hi: math.Inf(1), HiOpen: true}
	if !tail.Empty() {
		out = append(out, tail)
	}
	return a.keep(out)
}
