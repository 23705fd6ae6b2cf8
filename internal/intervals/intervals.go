// Package intervals implements sets of real intervals with open or closed
// endpoints, together with the Boolean algebra over them (union,
// intersection, complement).
//
// Interval sets are the workhorse of guard analysis in the simulator: given
// a location whose continuous variables evolve linearly with time, the set
// of delays at which a transition guard holds is exactly such a set. The
// Progressive strategy samples uniformly from it, ASAP takes its infimum,
// and MaxTime compares it against the invariant bound.
package intervals

import (
	"fmt"
	"math"
	"strings"
)

// Interval is a connected subset of the extended real line. Endpoints may be
// open or closed; infinite endpoints are always open.
type Interval struct {
	// Lo and Hi are the endpoints. Lo may be math.Inf(-1) and Hi
	// math.Inf(1).
	Lo, Hi float64
	// LoOpen and HiOpen record whether the respective endpoint is
	// excluded from the interval.
	LoOpen, HiOpen bool
}

// Point returns the degenerate interval [x, x].
func Point(x float64) Interval {
	return Interval{Lo: x, Hi: x}
}

// Closed returns the interval [lo, hi].
func Closed(lo, hi float64) Interval {
	return Interval{Lo: lo, Hi: hi}
}

// Open returns the interval (lo, hi).
func Open(lo, hi float64) Interval {
	return Interval{Lo: lo, Hi: hi, LoOpen: true, HiOpen: true}
}

// ClosedOpen returns the interval [lo, hi).
func ClosedOpen(lo, hi float64) Interval {
	return Interval{Lo: lo, Hi: hi, HiOpen: true}
}

// OpenClosed returns the interval (lo, hi].
func OpenClosed(lo, hi float64) Interval {
	return Interval{Lo: lo, Hi: hi, LoOpen: true}
}

// All returns the interval (-inf, +inf).
func All() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), LoOpen: true, HiOpen: true}
}

// AtLeast returns the interval [x, +inf).
func AtLeast(x float64) Interval {
	return Interval{Lo: x, Hi: math.Inf(1), HiOpen: true}
}

// AtMost returns the interval (-inf, x].
func AtMost(x float64) Interval {
	return Interval{Lo: math.Inf(-1), Hi: x, LoOpen: true}
}

// GreaterThan returns the interval (x, +inf).
func GreaterThan(x float64) Interval {
	return Interval{Lo: x, Hi: math.Inf(1), LoOpen: true, HiOpen: true}
}

// LessThan returns the interval (-inf, x).
func LessThan(x float64) Interval {
	return Interval{Lo: math.Inf(-1), Hi: x, LoOpen: true, HiOpen: true}
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return true
	}
	if iv.Lo > iv.Hi {
		return true
	}
	if iv.Lo == iv.Hi {
		// A degenerate interval is non-empty only if both endpoints
		// are closed and finite.
		return iv.LoOpen || iv.HiOpen || math.IsInf(iv.Lo, 0)
	}
	return false
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool {
	if iv.Empty() {
		return false
	}
	if x < iv.Lo || (x == iv.Lo && iv.LoOpen) {
		return false
	}
	if x > iv.Hi || (x == iv.Hi && iv.HiOpen) {
		return false
	}
	return true
}

// Length returns the measure of the interval (0 for points, +inf for
// unbounded intervals).
func (iv Interval) Length() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	out := iv
	if other.Lo > out.Lo || (other.Lo == out.Lo && other.LoOpen) {
		out.Lo, out.LoOpen = other.Lo, other.LoOpen
	}
	if other.Hi < out.Hi || (other.Hi == out.Hi && other.HiOpen) {
		out.Hi, out.HiOpen = other.Hi, other.HiOpen
	}
	return out
}

// String renders the interval in conventional bracket notation.
func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	lb, rb := "[", "]"
	if iv.LoOpen {
		lb = "("
	}
	if iv.HiOpen {
		rb = ")"
	}
	return fmt.Sprintf("%s%g,%g%s", lb, iv.Lo, iv.Hi, rb)
}

// touchesOrOverlaps reports whether a and b overlap or are adjacent such
// that their union is a single interval. Requires a.Lo <= b.Lo.
func touchesOrOverlaps(a, b Interval) bool {
	if b.Lo < a.Hi {
		return true
	}
	if b.Lo > a.Hi {
		return false
	}
	// b.Lo == a.Hi: they join unless both endpoints are open.
	return !(a.HiOpen && b.LoOpen)
}

// Set is a finite union of disjoint, non-adjacent intervals kept in
// ascending order. The zero value is the empty set.
type Set struct {
	ivs []Interval
}

// NewSet builds a set from arbitrary intervals, normalizing overlaps and
// dropping empty members.
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s = s.Union(FromInterval(iv))
	}
	return s
}

// FromInterval returns the set containing exactly iv.
func FromInterval(iv Interval) Set {
	if iv.Empty() {
		return Set{}
	}
	return Set{ivs: []Interval{iv}}
}

// EmptySet returns the empty set.
func EmptySet() Set { return Set{} }

// fullIvs is the shared backing of every FullSet. Set operations never
// mutate their receivers' interval slices, so sharing is safe and makes
// FullSet allocation-free — important because guards over discrete
// variables reduce to full/empty sets on the simulation hot path.
var fullIvs = []Interval{All()}

// FullSet returns the set covering the whole real line.
func FullSet() Set { return Set{ivs: fullIvs} }

// nonNegIvs is the shared backing of every NonNegative set, safe to share
// for the same reason as fullIvs.
var nonNegIvs = []Interval{AtLeast(0)}

// NonNegative returns the set [0, ∞) without allocating.
func NonNegative() Set { return Set{ivs: nonNegIvs} }

// Empty reports whether the set has no points.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Full reports whether the set covers the whole real line.
func (s Set) Full() bool { return len(s.ivs) == 1 && s.ivs[0] == All() }

// Intervals returns a copy of the set's constituent intervals in ascending
// order.
func (s Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Each calls yield on the set's constituent intervals in ascending order
// until yield returns false. Unlike Intervals it copies nothing, so read-only
// loops on the simulation hot path allocate nothing. s.Each has the shape of
// an iter.Seq[Interval].
func (s Set) Each(yield func(Interval) bool) {
	for _, iv := range s.ivs {
		if !yield(iv) {
			return
		}
	}
}

// Contains reports whether x lies in the set.
func (s Set) Contains(x float64) bool {
	for _, iv := range s.ivs {
		if iv.Contains(x) {
			return true
		}
		if x < iv.Lo {
			break
		}
	}
	return false
}

// Measure returns the total length of the set (possibly +inf).
func (s Set) Measure() float64 {
	var total float64
	for _, iv := range s.ivs {
		total += iv.Length()
	}
	return total
}

// Inf returns the infimum of the set and whether it is attained (i.e. the
// lowest endpoint is closed). Calling Inf on an empty set returns
// (+inf, false).
func (s Set) Inf() (float64, bool) {
	if s.Empty() {
		return math.Inf(1), false
	}
	first := s.ivs[0]
	return first.Lo, !first.LoOpen && !math.IsInf(first.Lo, -1)
}

// Sup returns the supremum of the set and whether it is attained. Calling
// Sup on an empty set returns (-inf, false).
func (s Set) Sup() (float64, bool) {
	if s.Empty() {
		return math.Inf(-1), false
	}
	last := s.ivs[len(s.ivs)-1]
	return last.Hi, !last.HiOpen && !math.IsInf(last.Hi, 0)
}

// MinIn returns the infimum of s ∩ [lo, hi] without materializing the
// intersection, and whether that intersection is non-empty. It is the
// allocation-free equivalent of s.Intersect(FromInterval(Closed(lo,
// hi))).Inf() used on the simulation hot path.
func (s Set) MinIn(lo, hi float64) (float64, bool) {
	clip := Closed(lo, hi)
	if clip.Empty() {
		return 0, false
	}
	for _, iv := range s.ivs {
		x := iv.Intersect(clip)
		if !x.Empty() {
			return x.Lo, true
		}
		if iv.Lo > hi {
			break
		}
	}
	return 0, false
}

// MinOutside returns the infimum of [lo, hi] \ s without materializing the
// difference, and whether that difference is non-empty. It is the
// allocation-free equivalent of FromInterval(Closed(lo, hi)).Minus(s).Inf():
// lo itself unless a component of s holds it, else that component's upper
// end, since components are disjoint and never adjacent.
func (s Set) MinOutside(lo, hi float64) (float64, bool) {
	if Closed(lo, hi).Empty() {
		return 0, false
	}
	for _, iv := range s.ivs {
		if iv.Contains(lo) {
			if iv.Hi > hi || (iv.Hi == hi && (!iv.HiOpen || math.IsInf(hi, 1))) {
				return 0, false
			}
			return iv.Hi, true
		}
		if iv.Lo > lo {
			break
		}
	}
	return lo, true
}

// Union returns the union of two sets.
func (s Set) Union(other Set) Set { return (*Arena)(nil).Union(s, other) }

// lessStart reports whether a starts strictly before b (taking openness
// into account: a closed endpoint precedes an open one at the same value).
func lessStart(a, b Interval) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return !a.LoOpen && b.LoOpen
}

// join merges two overlapping-or-adjacent intervals where a starts at or
// before b.
func join(a, b Interval) Interval {
	out := a
	if b.Hi > out.Hi || (b.Hi == out.Hi && out.HiOpen && !b.HiOpen) {
		out.Hi, out.HiOpen = b.Hi, b.HiOpen
	}
	return out
}

// Intersect returns the intersection of two sets.
func (s Set) Intersect(other Set) Set { return (*Arena)(nil).Intersect(s, other) }

// endsBefore reports whether a's upper endpoint precedes b's.
func endsBefore(a, b Interval) bool {
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.HiOpen && !b.HiOpen
}

// Complement returns the complement of the set with respect to the real
// line.
func (s Set) Complement() Set { return (*Arena)(nil).Complement(s) }

// Minus returns the set difference s \ other.
func (s Set) Minus(other Set) Set {
	return s.Intersect(other.Complement())
}

// Equal reports whether two sets contain exactly the same points.
func (s Set) Equal(other Set) bool {
	if len(s.ivs) != len(other.ivs) {
		return false
	}
	for i, iv := range s.ivs {
		if iv != other.ivs[i] {
			return false
		}
	}
	return true
}

// String renders the set as a union of intervals.
func (s Set) String() string {
	if s.Empty() {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}

// SampleUniform maps u ∈ [0,1) to a point of the set, distributed uniformly
// by measure. The set must have positive, finite measure; otherwise ok is
// false. Degenerate (zero-measure) components are ignored unless the whole
// set has measure zero, in which case the lowest point is returned if one
// exists.
func (s Set) SampleUniform(u float64) (x float64, ok bool) {
	total := s.Measure()
	if math.IsInf(total, 1) {
		return 0, false
	}
	if total == 0 {
		// All components are single points; pick the first.
		if len(s.ivs) > 0 {
			return s.ivs[0].Lo, true
		}
		return 0, false
	}
	target := u * total
	for _, iv := range s.ivs {
		l := iv.Length()
		if target <= l {
			return iv.Lo + target, true
		}
		target -= l
	}
	// Rounding slop: return the supremum.
	return s.ivs[len(s.ivs)-1].Hi, true
}
