package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"slimsim/internal/rng"
)

func TestChernoffBoundValues(t *testing.T) {
	tests := []struct {
		delta, eps float64
		want       int
	}{
		// N = ceil(ln(2/δ) / (2 ε²)).
		{0.05, 0.01, 18445},
		{0.01, 0.01, 26492},
		{0.05, 0.05, 738},
		{0.1, 0.1, 150},
	}
	for _, tt := range tests {
		got, err := ChernoffBound(Params{Delta: tt.delta, Epsilon: tt.eps})
		if err != nil {
			t.Fatalf("ChernoffBound(%v,%v): %v", tt.delta, tt.eps, err)
		}
		if got != tt.want {
			t.Errorf("ChernoffBound(δ=%v, ε=%v) = %d, want %d", tt.delta, tt.eps, got, tt.want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Delta: 0, Epsilon: 0.1},
		{Delta: 1, Epsilon: 0.1},
		{Delta: 0.1, Epsilon: 0},
		{Delta: 0.1, Epsilon: 1},
		{Delta: -0.5, Epsilon: 0.1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", p)
		}
	}
	if err := (Params{Delta: 0.05, Epsilon: 0.01}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestEstimate(t *testing.T) {
	var e Estimate
	if e.Mean() != 0 {
		t.Error("empty estimate mean should be 0")
	}
	for i := 0; i < 10; i++ {
		e.Add(i < 3)
	}
	if e.Trials != 10 || e.Successes != 3 {
		t.Fatalf("estimate = %+v, want 3/10", e)
	}
	if math.Abs(e.Mean()-0.3) > 1e-15 {
		t.Errorf("mean = %v, want 0.3", e.Mean())
	}
	if math.Abs(e.Variance()-0.21) > 1e-15 {
		t.Errorf("variance = %v, want 0.21", e.Variance())
	}
}

func TestChernoffGeneratorStopsExactly(t *testing.T) {
	p := Params{Delta: 0.1, Epsilon: 0.1}
	g, err := NewChernoff(p)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Planned()
	if n != 150 {
		t.Fatalf("Planned = %d, want 150", n)
	}
	for i := 0; i < n-1; i++ {
		if g.Done() {
			t.Fatalf("Done after %d < %d samples", i, n)
		}
		g.Add(i%2 == 0)
	}
	g.Add(true)
	if !g.Done() {
		t.Error("generator should be done after N samples")
	}
}

// TestChernoffCoverage verifies the CH guarantee empirically: over many
// repetitions the estimate is within ε of the truth far more often than
// 1−δ.
func TestChernoffCoverage(t *testing.T) {
	p := Params{Delta: 0.1, Epsilon: 0.05}
	const truth = 0.3
	src := rng.New(99)
	misses := 0
	const reps = 200
	for rep := 0; rep < reps; rep++ {
		g, err := NewChernoff(p)
		if err != nil {
			t.Fatal(err)
		}
		for !g.Done() {
			g.Add(src.Bernoulli(truth))
		}
		if math.Abs(g.Estimate().Mean()-truth) > p.Epsilon {
			misses++
		}
	}
	// Expected misses << δ·reps = 20; CH is very conservative.
	if misses > 20 {
		t.Errorf("estimate missed ε-tube %d/%d times, want ≤ 20", misses, reps)
	}
}

func TestGaussGeneratorNeedsFewerSamples(t *testing.T) {
	p := Params{Delta: 0.05, Epsilon: 0.05}
	ch, err := NewChernoff(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGauss(p)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	const truth = 0.2
	for !g.Done() {
		g.Add(src.Bernoulli(truth))
	}
	if got, bound := g.Estimate().Trials, ch.Planned(); got >= bound {
		t.Errorf("Gauss used %d samples, expected fewer than CH bound %d", got, bound)
	}
	if math.Abs(g.Estimate().Mean()-truth) > 3*p.Epsilon {
		t.Errorf("Gauss estimate %v too far from %v", g.Estimate().Mean(), truth)
	}
}

func TestGaussDegenerateStream(t *testing.T) {
	p := Params{Delta: 0.05, Epsilon: 0.01}
	g, err := NewGauss(p)
	if err != nil {
		t.Fatal(err)
	}
	// All failures: variance floor must keep it sampling past minN.
	for i := 0; i < 50; i++ {
		g.Add(false)
	}
	if g.Done() {
		t.Error("Gauss should not stop at minN with ε=0.01 under the variance floor")
	}
	for i := 0; i < 10000; i++ {
		g.Add(false)
	}
	if !g.Done() {
		t.Error("Gauss should eventually stop on a degenerate stream")
	}
	if g.Planned() != 0 {
		t.Error("sequential generator should not report a planned count")
	}
}

func TestChowRobbinsStopsAndCovers(t *testing.T) {
	p := Params{Delta: 0.05, Epsilon: 0.05}
	src := rng.New(21)
	const truth = 0.4
	misses := 0
	const reps = 100
	var totalN int
	for rep := 0; rep < reps; rep++ {
		g, err := NewChowRobbins(p)
		if err != nil {
			t.Fatal(err)
		}
		for !g.Done() {
			g.Add(src.Bernoulli(truth))
		}
		totalN += g.Estimate().Trials
		if math.Abs(g.Estimate().Mean()-truth) > p.Epsilon {
			misses++
		}
	}
	// Nominal coverage 95%; allow generous slack for sequential bias.
	if misses > 15 {
		t.Errorf("Chow–Robbins missed %d/%d times, want ≤ 15", misses, reps)
	}
	ch, _ := NewChernoff(p)
	if avg := totalN / reps; avg >= ch.Planned() {
		t.Errorf("Chow–Robbins averaged %d samples, expected fewer than CH bound %d", avg, ch.Planned())
	}
}

func TestParseMethod(t *testing.T) {
	tests := []struct {
		in      string
		want    Method
		wantErr bool
	}{
		{"chernoff", MethodChernoff, false},
		{"ch", MethodChernoff, false},
		{"gauss", MethodGauss, false},
		{"clt", MethodGauss, false},
		{"chow-robbins", MethodChowRobbins, false},
		{"cr", MethodChowRobbins, false},
		{"bogus", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseMethod(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseMethod(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseMethod(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	for _, m := range []Method{MethodChernoff, MethodGauss, MethodChowRobbins} {
		back, err := ParseMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round-trip of %v failed: (%v, %v)", m, back, err)
		}
	}
}

func TestNewGeneratorDispatch(t *testing.T) {
	p := Params{Delta: 0.1, Epsilon: 0.1, RelErr: 0.1}
	for _, m := range []Method{MethodChernoff, MethodGauss, MethodChowRobbins, MethodRelative} {
		g, err := NewGenerator(m, p)
		if err != nil || g == nil {
			t.Errorf("NewGenerator(%v) = (%v, %v)", m, g, err)
		}
	}
	if _, err := NewGenerator(Method(99), p); err == nil {
		t.Error("NewGenerator should reject invalid method")
	}
	if _, err := NewGenerator(MethodRelative, Params{Delta: 0.1, Epsilon: 0.1}); err == nil {
		t.Error("NewGenerator(MethodRelative) should reject RelErr = 0")
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.0001, -3.719016},
	}
	for _, tt := range tests {
		got := normalQuantile(tt.p)
		if math.Abs(got-tt.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestQuickChernoffBoundMonotone(t *testing.T) {
	// Tighter ε or δ never decreases the required sample count.
	f := func(a, b uint8) bool {
		e1 := 0.01 + float64(a%50)/100 // in [0.01, 0.50]
		e2 := e1 / 2
		d := 0.01 + float64(b%50)/100
		n1, err1 := ChernoffBound(Params{Delta: d, Epsilon: e1})
		n2, err2 := ChernoffBound(Params{Delta: d, Epsilon: e2})
		n3, err3 := ChernoffBound(Params{Delta: d / 2, Epsilon: e1})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return n2 >= n1 && n3 >= n1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGeneratorBoundaryDeltas pins the panic-path fix: every generator
// constructor returns an error (never panics) for Delta at or outside
// (0,1), and tiny-but-valid deltas — for which the naive 1−δ/2 rounds to
// exactly 1.0 and used to blow up inside normalQuantile — now build
// working generators that still reach a stopping decision.
func TestGeneratorBoundaryDeltas(t *testing.T) {
	methods := []Method{MethodChernoff, MethodGauss, MethodChowRobbins}
	for _, m := range methods {
		for _, delta := range []float64{0, 1, 2, -1, math.NaN()} {
			if _, err := NewGenerator(m, Params{Delta: delta, Epsilon: 0.1}); err == nil {
				t.Errorf("%s: Delta=%g: want error, got generator", m, delta)
			}
		}
		for _, delta := range []float64{1e-17, 1e-300, 1 - 1e-16} {
			g, err := NewGenerator(m, Params{Delta: delta, Epsilon: 0.5})
			if err != nil {
				t.Fatalf("%s: Delta=%g: %v", m, delta, err)
			}
			n := 0
			for ; n < 5000 && !g.Done(); n++ {
				g.Add(n%2 == 0)
			}
			if !g.Done() {
				t.Errorf("%s: Delta=%g: not done after %d samples", m, delta, n)
			}
		}
	}
}

// TestConfidenceIntervalTinyDelta guards the same rounding hazard on the
// telemetry-facing interval helper.
func TestConfidenceIntervalTinyDelta(t *testing.T) {
	lo, hi := ConfidenceInterval(Estimate{Successes: 1, Trials: 2}, 1e-17)
	if !(0 <= lo && lo <= hi && hi <= 1) {
		t.Fatalf("interval [%g, %g] not within [0,1]", lo, hi)
	}
	if lo > 0.5 || hi < 0.5 {
		t.Fatalf("interval [%g, %g] does not contain the mean 0.5", lo, hi)
	}
}

// TestUpperQuantileMatchesNaive checks the symmetric evaluation against
// the direct one where the latter is numerically safe.
func TestUpperQuantileMatchesNaive(t *testing.T) {
	for _, d := range []float64{0.5, 0.1, 0.05, 0.01, 1e-3, 1e-6} {
		got, want := upperQuantile(d), normalQuantile(1-d/2)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("upperQuantile(%g) = %g, normalQuantile(1-δ/2) = %g", d, got, want)
		}
	}
}

// TestChernoffBoundOverflow pins the N_max guard: a sample budget above
// MaxPlannedSamples must come back as an explicit error, not overflow the
// int conversion into a garbage plan the generator stops on instantly.
func TestChernoffBoundOverflow(t *testing.T) {
	// ε=1e-9 plans ≈1.8e18 samples — far past N_max and past MaxInt32.
	_, err := ChernoffBound(Params{Delta: 0.05, Epsilon: 1e-9})
	if err == nil {
		t.Fatal("ChernoffBound(ε=1e-9) = nil error, want N_max overflow")
	}
	if !strings.Contains(err.Error(), "exceeds N_max") {
		t.Fatalf("overflow error %q does not name N_max", err)
	}
	// NewChernoff must refuse the same parameters rather than return a
	// generator whose Done() is immediately (or never) true.
	if g, err := NewChernoff(Params{Delta: 0.05, Epsilon: 1e-9}); err == nil {
		t.Fatalf("NewChernoff(ε=1e-9) = %+v, nil error; want N_max overflow", g)
	}
}

// TestChernoffBoundBoundary walks ε across the N_max threshold: just-legal
// budgets plan a positive in-range N, just-illegal ones error, and the
// planned N is always ⌈ln(2/δ)/(2ε²)⌉.
func TestChernoffBoundBoundary(t *testing.T) {
	const delta = 0.05
	// Solve ln(2/δ)/(2ε²) = MaxPlannedSamples for the threshold ε.
	crit := math.Sqrt(math.Log(2/delta) / (2 * MaxPlannedSamples))

	okEps := crit * 1.0001 // slightly looser: budget just under N_max
	n, err := ChernoffBound(Params{Delta: delta, Epsilon: okEps})
	if err != nil {
		t.Fatalf("ChernoffBound(ε=%g) error: %v", okEps, err)
	}
	want := int(math.Ceil(math.Log(2/delta) / (2 * okEps * okEps)))
	if n != want || n <= 0 || n > MaxPlannedSamples {
		t.Fatalf("ChernoffBound(ε=%g) = %d, want %d in (0, N_max]", okEps, n, want)
	}

	badEps := crit * 0.999 // slightly tighter: budget just over N_max
	if n, err := ChernoffBound(Params{Delta: delta, Epsilon: badEps}); err == nil {
		t.Fatalf("ChernoffBound(ε=%g) = %d, nil error; want N_max overflow", badEps, n)
	}
}
