package intervals

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalEmpty(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		want bool
	}{
		{"closed nonempty", Closed(0, 1), false},
		{"point", Point(3), false},
		{"open degenerate", Open(3, 3), true},
		{"half-open degenerate lo", OpenClosed(3, 3), true},
		{"half-open degenerate hi", ClosedOpen(3, 3), true},
		{"inverted", Closed(2, 1), true},
		{"nan lo", Interval{Lo: math.NaN(), Hi: 1}, true},
		{"all", All(), false},
		{"at least", AtLeast(5), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Empty(); got != tt.want {
				t.Errorf("Empty(%v) = %v, want %v", tt.iv, got, tt.want)
			}
		})
	}
}

func TestIntervalContains(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		x    float64
		want bool
	}{
		{"inside closed", Closed(0, 1), 0.5, true},
		{"lo closed boundary", Closed(0, 1), 0, true},
		{"hi closed boundary", Closed(0, 1), 1, true},
		{"lo open boundary", Open(0, 1), 0, false},
		{"hi open boundary", Open(0, 1), 1, false},
		{"outside", Closed(0, 1), 2, false},
		{"point hit", Point(3), 3, true},
		{"point miss", Point(3), 3.0001, false},
		{"unbounded above", AtLeast(2), 1e18, true},
		{"unbounded below", AtMost(2), -1e18, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Contains(tt.x); got != tt.want {
				t.Errorf("(%v).Contains(%v) = %v, want %v", tt.iv, tt.x, got, tt.want)
			}
		})
	}
}

func TestIntervalIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b Interval
		want Interval
	}{
		{"overlap", Closed(0, 2), Closed(1, 3), Closed(1, 2)},
		{"nested", Closed(0, 10), Open(2, 3), Open(2, 3)},
		{"disjoint", Closed(0, 1), Closed(2, 3), Closed(2, 1)},
		{"touching closed", Closed(0, 1), Closed(1, 2), Point(1)},
		{"touching open", ClosedOpen(0, 1), OpenClosed(1, 2), Open(1, 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.Intersect(tt.b)
			if got.Empty() != tt.want.Empty() {
				t.Fatalf("Intersect emptiness mismatch: got %v want %v", got, tt.want)
			}
			if !got.Empty() && got != tt.want {
				t.Errorf("Intersect = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSetUnionMergesAdjacent(t *testing.T) {
	s := NewSet(Closed(0, 1), Closed(1, 2))
	if got := len(s.Intervals()); got != 1 {
		t.Fatalf("expected 1 merged interval, got %d: %v", got, s)
	}
	if !s.Contains(1) || !s.Contains(0) || !s.Contains(2) {
		t.Errorf("merged set missing points: %v", s)
	}
}

func TestSetUnionKeepsOpenGap(t *testing.T) {
	s := NewSet(ClosedOpen(0, 1), OpenClosed(1, 2))
	if got := len(s.Intervals()); got != 2 {
		t.Fatalf("expected 2 intervals (point gap at 1), got %d: %v", got, s)
	}
	if s.Contains(1) {
		t.Error("set should not contain the open gap point 1")
	}
}

func TestSetComplement(t *testing.T) {
	s := NewSet(Closed(1, 2), Open(4, 5))
	c := s.Complement()
	for _, tc := range []struct {
		x    float64
		want bool
	}{
		{0, true}, {1, false}, {1.5, false}, {2, false}, {3, true},
		{4, true}, {4.5, false}, {5, true}, {100, true},
	} {
		if got := c.Contains(tc.x); got != tc.want {
			t.Errorf("complement.Contains(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestSetIntersect(t *testing.T) {
	a := NewSet(Closed(0, 5), Closed(10, 15))
	b := NewSet(Closed(3, 12))
	got := a.Intersect(b)
	want := NewSet(Closed(3, 5), Closed(10, 12))
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
}

func TestSetMinus(t *testing.T) {
	a := FromInterval(Closed(0, 10))
	b := FromInterval(Open(3, 7))
	got := a.Minus(b)
	want := NewSet(Closed(0, 3), Closed(7, 10))
	if !got.Equal(want) {
		t.Errorf("Minus = %v, want %v", got, want)
	}
}

func TestSetInfSup(t *testing.T) {
	s := NewSet(Open(1, 2), Closed(5, 8))
	inf, infAttained := s.Inf()
	if inf != 1 || infAttained {
		t.Errorf("Inf = (%v,%v), want (1,false)", inf, infAttained)
	}
	sup, supAttained := s.Sup()
	if sup != 8 || !supAttained {
		t.Errorf("Sup = (%v,%v), want (8,true)", sup, supAttained)
	}

	empty := EmptySet()
	if inf, ok := empty.Inf(); !math.IsInf(inf, 1) || ok {
		t.Errorf("empty Inf = (%v,%v), want (+inf,false)", inf, ok)
	}
}

func TestSetMeasure(t *testing.T) {
	s := NewSet(Closed(0, 1), Open(2, 4), Point(9))
	if got, want := s.Measure(), 3.0; got != want {
		t.Errorf("Measure = %v, want %v", got, want)
	}
	if got := FromInterval(AtLeast(0)).Measure(); !math.IsInf(got, 1) {
		t.Errorf("Measure of unbounded set = %v, want +inf", got)
	}
}

func TestSampleUniform(t *testing.T) {
	s := NewSet(Closed(0, 1), Closed(10, 12))
	// Measure is 3; u=0.5 maps to target 1.5, i.e. 0.5 into the second
	// interval.
	x, ok := s.SampleUniform(0.5)
	if !ok {
		t.Fatal("SampleUniform failed on finite-measure set")
	}
	if math.Abs(x-10.5) > 1e-12 {
		t.Errorf("SampleUniform(0.5) = %v, want 10.5", x)
	}
	if _, ok := FromInterval(AtLeast(0)).SampleUniform(0.5); ok {
		t.Error("SampleUniform should fail on infinite-measure set")
	}
	// Zero-measure set: returns the single point.
	x, ok = FromInterval(Point(7)).SampleUniform(0.3)
	if !ok || x != 7 {
		t.Errorf("SampleUniform on point set = (%v,%v), want (7,true)", x, ok)
	}
}

func TestSampleUniformStaysInSet(t *testing.T) {
	s := NewSet(Closed(0, 1), Closed(2, 3), Closed(7, 7.5))
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		x, ok := s.SampleUniform(r.Float64())
		if !ok {
			t.Fatal("SampleUniform failed")
		}
		if !s.Contains(x) {
			t.Fatalf("sampled point %v outside set %v", x, s)
		}
	}
}

// randomSet builds a normalized set from random intervals over a small
// bounded range so collision cases (shared endpoints) are common.
func randomSet(r *rand.Rand) Set {
	n := r.Intn(4)
	s := EmptySet()
	for i := 0; i < n; i++ {
		lo := float64(r.Intn(10))
		hi := lo + float64(r.Intn(5))
		iv := Interval{Lo: lo, Hi: hi, LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
		s = s.Union(FromInterval(iv))
	}
	return s
}

func TestQuickUnionCommutative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectCommutative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		return a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickComplementInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r)
		return a.Complement().Complement().Equal(a)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		lhs := a.Union(b).Complement()
		rhs := a.Complement().Intersect(b.Complement())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMembershipAgreesWithOps(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		u, inter, comp := a.Union(b), a.Intersect(b), a.Complement()
		// Probe on a grid including endpoints and midpoints.
		for x := -1.0; x <= 16; x += 0.25 {
			if u.Contains(x) != (a.Contains(x) || b.Contains(x)) {
				return false
			}
			if inter.Contains(x) != (a.Contains(x) && b.Contains(x)) {
				return false
			}
			if comp.Contains(x) != !a.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIdempotence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r)
		return a.Union(a).Equal(a) && a.Intersect(a).Equal(a)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSharedAndBackedSets: NonNegative and Arena.Of equal the allocating
// FromInterval, allocate nothing once the arena has backing, and a set
// built in an arena survives an operation that returns a new set.
func TestSharedAndBackedSets(t *testing.T) {
	if !NonNegative().Equal(FromInterval(AtLeast(0))) {
		t.Errorf("NonNegative() = %v", NonNegative())
	}
	var a Arena
	for _, iv := range []Interval{Closed(0, 2), ClosedOpen(0, 2), ClosedOpen(0, 0)} {
		if got := a.Of(iv); !got.Equal(FromInterval(iv)) {
			t.Errorf("Of(%v) = %v", iv, got)
		}
	}
	s := a.Of(Closed(0, 2))
	if u := a.Union(s, a.Of(Closed(3, 4))); !u.Equal(NewSet(Closed(0, 2), Closed(3, 4))) || !s.Equal(FromInterval(Closed(0, 2))) {
		t.Errorf("union %v changed its operand %v", u, s)
	}
	if n := testing.AllocsPerRun(100, func() {
		a.Reset()
		_ = NonNegative()
		_ = a.Of(Closed(0, 1))
	}); n != 0 {
		t.Errorf("%.1f allocations, want 0", n)
	}
}

// randomUnboundedSet is randomSet, complemented a third of the time so
// unbounded components and the full set occur too.
func randomUnboundedSet(r *rand.Rand) Set {
	s := randomSet(r)
	if r.Intn(3) == 0 {
		s = s.Complement()
	}
	return s
}

// TestArenaMatchesAllocating: every arena operation, on random sets and on
// sets it built itself, equals the allocating one and returns a
// capacity-limited set. Sets built before the arena moved to new backing,
// or before later operations, keep their contents until Reset, and results
// after a Reset are right again.
func TestArenaMatchesAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var a Arena
	type kept struct{ got, want Set }
	var live []kept
	moves := 0
	check := func(op string, got, want Set) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("arena %s = %v, want %v", op, got, want)
		}
		if cap(got.ivs) != len(got.ivs) {
			t.Fatalf("arena %s returned %d intervals with capacity %d", op, len(got.ivs), cap(got.ivs))
		}
		live = append(live, kept{got, want})
	}
	for trial := 0; trial < 2000; trial++ {
		if trial%50 == 0 {
			a.Reset()
			live = live[:0]
		}
		before := a.Cap()
		s, u := randomUnboundedSet(r), randomUnboundedSet(r)
		lo := float64(r.Intn(10))
		iv := Interval{Lo: lo, Hi: lo + float64(r.Intn(5)), LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
		check("Of", a.Of(iv), FromInterval(iv))
		check("Union", a.Union(s, u), s.Union(u))
		check("Intersect", a.Intersect(s, u), s.Intersect(u))
		check("Complement", a.Complement(s), s.Complement())
		// Chain through sets the arena built.
		as, au := a.Union(s, a.Of(iv)), a.Complement(u)
		check("chained Intersect", a.Intersect(as, au), s.Union(FromInterval(iv)).Intersect(u.Complement()))
		check("chained Union", a.Union(au, as), u.Complement().Union(s.Union(FromInterval(iv))))
		if a.Cap() != before {
			moves++
		}
		for _, k := range live {
			if !k.got.Equal(k.want) {
				t.Fatalf("trial %d: a set built earlier changed to %v, want %v", trial, k.got, k.want)
			}
		}
	}
	if moves == 0 {
		t.Error("the arena never moved to new backing; the test does not cover growth")
	}
}

// TestArenaAllocs: once its backing is large enough, an arena that is reset
// between rounds builds every set without allocating.
func TestArenaAllocs(t *testing.T) {
	s := NewSet(Closed(0, 2), Open(3, 5), AtLeast(7))
	u := NewSet(LessThan(1), Closed(4, 8))
	var a Arena
	round := func() {
		a.Reset()
		x := a.Union(s, a.Of(Closed(2, 3)))
		y := a.Complement(a.Intersect(x, u))
		_ = a.Intersect(y, a.Union(u, s))
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a warm arena allocates %.1f objects per round, want 0", n)
	}
}

// TestMinOutside: MinOutside agrees with the difference it stands for on
// random sets, over windows that start inside, at the edge of and outside
// their components, end at their endpoints, and are empty, degenerate or
// unbounded.
func TestMinOutside(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		s := randomUnboundedSet(r)
		lo := float64(r.Intn(12)) - 1
		var hi float64
		switch r.Intn(4) {
		case 0:
			hi = math.Inf(1)
		case 1:
			hi = lo
		default:
			hi = float64(r.Intn(14)) - 1
		}
		diff := FromInterval(Closed(lo, hi)).Minus(s)
		want, _ := diff.Inf()
		got, ok := s.MinOutside(lo, hi)
		if ok != !diff.Empty() || (ok && got != want) {
			t.Fatalf("%v.MinOutside(%g, %g) = (%g, %v); [lo, hi] \\ s = %v", s, lo, hi, got, ok, diff)
		}
	}
}

// TestEach: Each visits the same intervals as Intervals in the same order,
// stops when yield returns false, and allocates nothing.
func TestEach(t *testing.T) {
	s := NewSet(Closed(5, 6), Open(0, 1), Point(3))
	var got []Interval
	s.Each(func(iv Interval) bool {
		got = append(got, iv)
		return true
	})
	want := s.Intervals()
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", got, want)
		}
	}
	n := 0
	s.Each(func(Interval) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("Each went on for %d intervals after yield returned false at 2", n)
	}
	if a := testing.AllocsPerRun(100, func() {
		hi := 0.0
		s.Each(func(iv Interval) bool {
			hi = iv.Hi
			return true
		})
		_ = hi
	}); a != 0 {
		t.Errorf("Each allocates %.1f objects, want 0", a)
	}
}
