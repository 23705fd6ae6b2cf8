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

// TestSharedAndBackedSets: NonNegative and FromIntervalIn equal the
// allocating FromInterval, allocate nothing, and a set built in a buffer
// survives an operation that returns a new set.
func TestSharedAndBackedSets(t *testing.T) {
	if !NonNegative().Equal(FromInterval(AtLeast(0))) {
		t.Errorf("NonNegative() = %v", NonNegative())
	}
	var buf [1]Interval
	for _, iv := range []Interval{Closed(0, 2), ClosedOpen(0, 2), ClosedOpen(0, 0)} {
		if got := FromIntervalIn(buf[:], iv); !got.Equal(FromInterval(iv)) {
			t.Errorf("FromIntervalIn(%v) = %v", iv, got)
		}
	}
	s := FromIntervalIn(buf[:], Closed(0, 2))
	if u := s.Union(FromInterval(Closed(3, 4))); !u.Equal(NewSet(Closed(0, 2), Closed(3, 4))) || !s.Equal(FromInterval(Closed(0, 2))) {
		t.Errorf("union %v changed its receiver %v", u, s)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = NonNegative()
		_ = FromIntervalIn(buf[:], Closed(0, 1))
	}); n != 0 {
		t.Errorf("%.1f allocations, want 0", n)
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
