// Package stats implements the quantitative statistical analysis of the
// simulator: the fixed-sample-size Chernoff–Hoeffding generator the paper
// ships, plus the Chow–Robbins and Gauss (CLT-based) sequential generators
// it names as future extensions.
//
// A Generator consumes a stream of Bernoulli outcomes (one per simulated
// path: did the path satisfy the property?) and decides when enough samples
// have been collected for the requested confidence 1−δ and error bound ε.
package stats

import (
	"fmt"
	"math"
)

// Params carries the user-facing accuracy knobs of an analysis: with
// probability at least 1−Delta the reported estimate is within Epsilon of
// the true probability.
type Params struct {
	// Delta is the statistical risk δ ∈ (0, 1).
	Delta float64
	// Epsilon is the absolute error bound ε ∈ (0, 1).
	Epsilon float64
	// RelErr is the target relative error of MethodRelative, in (0, 1):
	// sampling continues until the CLT half-width is at most RelErr·p̂.
	// The other methods ignore it.
	RelErr float64
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if !(p.Delta > 0 && p.Delta < 1) {
		return fmt.Errorf("stats: δ must lie in (0,1), got %g", p.Delta)
	}
	if !(p.Epsilon > 0 && p.Epsilon < 1) {
		return fmt.Errorf("stats: ε must lie in (0,1), got %g", p.Epsilon)
	}
	return nil
}

// MaxPlannedSamples is the largest sample budget a generator will plan
// (N_max). Params.Validate admits any ε ∈ (0,1), and a tiny ε makes the
// Chernoff bound astronomically large — e.g. ε=1e-9 plans ≈1.8e18 paths —
// which both overflows the int conversion and could never finish anyway.
// The cap is the point where the plan stops being a plan; requests beyond
// it are configuration errors, reported before any sampling starts.
const MaxPlannedSamples = math.MaxInt32

// ChernoffBound returns the number of samples N such that the empirical
// mean of N i.i.d. Bernoulli variables deviates from the true probability
// by more than ε with probability at most δ:
//
//	N = ⌈ ln(2/δ) / (2 ε²) ⌉.
//
// This is the standard two-sided Chernoff–Hoeffding bound used by the
// paper's generator (the printed formula in the paper is OCR-garbled; this
// is the form from the cited APMC literature). Budgets above
// MaxPlannedSamples are rejected with an error instead of silently
// overflowing the conversion to int (which yielded a garbage plan the
// generator could stop on instantly).
func ChernoffBound(p Params) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n := math.Ceil(math.Log(2/p.Delta) / (2 * p.Epsilon * p.Epsilon))
	if !(n <= MaxPlannedSamples) {
		return 0, fmt.Errorf("stats: Chernoff sample budget %.4g exceeds N_max %d (δ=%g, ε=%g); loosen the accuracy target",
			n, int64(MaxPlannedSamples), p.Delta, p.Epsilon)
	}
	return int(n), nil
}

// Estimate is the running state of a Bernoulli estimator.
type Estimate struct {
	// Successes counts positive outcomes (property satisfied).
	Successes int
	// Trials counts all outcomes.
	Trials int
}

// Add records one outcome.
func (e *Estimate) Add(success bool) {
	e.Trials++
	if success {
		e.Successes++
	}
}

// Mean returns the empirical probability (0 for no trials).
func (e Estimate) Mean() float64 {
	if e.Trials == 0 {
		return 0
	}
	return float64(e.Successes) / float64(e.Trials)
}

// Variance returns the empirical Bernoulli variance p̂(1−p̂).
func (e Estimate) Variance() float64 {
	m := e.Mean()
	return m * (1 - m)
}

// ConfidenceInterval returns a two-sided CLT (Wald-style) confidence
// interval around the empirical mean at level 1−delta, clamped to [0, 1].
// The variance uses the 1/(4n) floor of the Gauss generator so degenerate
// estimates (all outcomes equal) still get a non-trivial interval. With no
// trials the interval is the vacuous [0, 1].
//
// This is the interval shown by the telemetry layer (progress line, run
// reports); the stopping rules themselves live in the generators below.
func ConfidenceInterval(e Estimate, delta float64) (lo, hi float64) {
	if e.Trials == 0 || !(delta > 0 && delta < 1) {
		return 0, 1
	}
	n := float64(e.Trials)
	v := e.Variance()
	if v == 0 {
		v = 1 / (4 * n)
	}
	half := upperQuantile(delta) * math.Sqrt(v/n)
	lo = e.Mean() - half
	hi = e.Mean() + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Generator decides how many samples an analysis needs. Implementations
// are stateful and not safe for concurrent use; the parallel collector
// funnels worker results into a single Generator.
type Generator interface {
	// Add records one path outcome.
	Add(success bool)
	// Done reports whether the accuracy target has been met.
	Done() bool
	// Estimate returns the current estimator state.
	Estimate() Estimate
	// Planned returns the a-priori total number of samples if the
	// generator knows it (Chernoff–Hoeffding), or 0 if the stopping
	// time is data-dependent.
	Planned() int
}

// chGenerator is the fixed-N Chernoff–Hoeffding generator.
type chGenerator struct {
	est Estimate
	n   int
}

var _ Generator = (*chGenerator)(nil)

// NewChernoff returns the paper's generator: it stops after the a-priori
// bound ChernoffBound(p) samples.
func NewChernoff(p Params) (Generator, error) {
	n, err := ChernoffBound(p)
	if err != nil {
		return nil, err
	}
	return &chGenerator{n: n}, nil
}

func (g *chGenerator) Add(success bool)   { g.est.Add(success) }
func (g *chGenerator) Done() bool         { return g.est.Trials >= g.n }
func (g *chGenerator) Estimate() Estimate { return g.est }
func (g *chGenerator) Planned() int       { return g.n }

// gaussGenerator stops when the CLT-based confidence interval half-width
// drops below ε. It is anticonservative for very small sample counts, so a
// minimum sample count is enforced.
type gaussGenerator struct {
	est    Estimate
	params Params
	z      float64
	minN   int
}

var _ Generator = (*gaussGenerator)(nil)

// NewGauss returns a sequential generator based on the normal
// approximation: sampling stops once z_{1−δ/2} · sqrt(p̂(1−p̂)/n) ≤ ε (with
// at least minN = 50 samples). For probabilities away from 0 and 1 it needs
// far fewer samples than the Chernoff bound at the same nominal accuracy.
func NewGauss(p Params) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &gaussGenerator{
		params: p,
		z:      upperQuantile(p.Delta),
		minN:   50,
	}, nil
}

func (g *gaussGenerator) Add(success bool) { g.est.Add(success) }

func (g *gaussGenerator) Done() bool {
	n := g.est.Trials
	if n < g.minN {
		return false
	}
	// Use the Wilson-style conservative variance floor 1/(4n) when the
	// empirical variance is zero (all outcomes equal so far) — otherwise
	// the generator would stop immediately at minN with p̂ ∈ {0, 1}.
	v := g.est.Variance()
	if v == 0 {
		v = 1 / float64(4*n)
	}
	half := g.z * math.Sqrt(v/float64(n))
	return half <= g.params.Epsilon
}

func (g *gaussGenerator) Estimate() Estimate { return g.est }
func (g *gaussGenerator) Planned() int       { return 0 }

// chowRobbinsGenerator implements the Chow–Robbins sequential procedure for
// fixed-width confidence intervals: continue sampling while
// n < z² · (S²_n + 1/n) / ε², where S²_n is the empirical variance. It has
// asymptotically the nominal coverage with a data-dependent stopping time.
type chowRobbinsGenerator struct {
	est    Estimate
	params Params
	z      float64
	minN   int
}

var _ Generator = (*chowRobbinsGenerator)(nil)

// NewChowRobbins returns the Chow–Robbins sequential generator.
func NewChowRobbins(p Params) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &chowRobbinsGenerator{
		params: p,
		z:      upperQuantile(p.Delta),
		minN:   30,
	}, nil
}

func (g *chowRobbinsGenerator) Add(success bool) { g.est.Add(success) }

func (g *chowRobbinsGenerator) Done() bool {
	n := g.est.Trials
	if n < g.minN {
		return false
	}
	s2 := g.est.Variance()
	needed := g.z * g.z * (s2 + 1/float64(n)) / (g.params.Epsilon * g.params.Epsilon)
	return float64(n) >= needed
}

func (g *chowRobbinsGenerator) Estimate() Estimate { return g.est }
func (g *chowRobbinsGenerator) Planned() int       { return 0 }

// Method names a sample-count generator.
type Method int

// Supported generators.
const (
	MethodChernoff Method = iota + 1
	MethodGauss
	MethodChowRobbins
	// MethodRelative is the relative-error sequential rule (NewRelative)
	// at Params.RelErr. It is selected by the -rel knob rather than
	// -method because it takes the target relative error as an extra
	// parameter.
	MethodRelative
)

// String returns the method's CLI name.
func (m Method) String() string {
	switch m {
	case MethodChernoff:
		return "chernoff"
	case MethodGauss:
		return "gauss"
	case MethodChowRobbins:
		return "chow-robbins"
	case MethodRelative:
		return "rel"
	default:
		return "invalid"
	}
}

// ParseMethod maps a CLI name to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "chernoff", "ch":
		return MethodChernoff, nil
	case "gauss", "clt":
		return MethodGauss, nil
	case "chow-robbins", "cr":
		return MethodChowRobbins, nil
	default:
		return 0, fmt.Errorf("stats: unknown method %q (want chernoff, gauss or chow-robbins)", s)
	}
}

// NewGenerator builds the generator for a method.
func NewGenerator(m Method, p Params) (Generator, error) {
	switch m {
	case MethodChernoff:
		return NewChernoff(p)
	case MethodGauss:
		return NewGauss(p)
	case MethodChowRobbins:
		return NewChowRobbins(p)
	case MethodRelative:
		return NewRelative(p.Delta, p.RelErr)
	default:
		return nil, fmt.Errorf("stats: invalid method %d", m)
	}
}

// upperQuantile returns z_{1−δ/2}, the two-sided critical value at risk
// δ ∈ (0, 1). It evaluates the quantile at δ/2 and negates: for tiny δ
// (say 1e-17) the naive 1−δ/2 rounds to exactly 1.0 in float64 and the
// quantile blows up, while δ/2 keeps full precision down to the smallest
// subnormal — any δ that passes Params.Validate is safe here.
func upperQuantile(delta float64) float64 {
	return -normalQuantile(delta / 2)
}

// normalQuantile returns the p-quantile of the standard normal
// distribution using the Acklam rational approximation (absolute error
// below 1.15e-9, ample for stopping rules).
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile argument %g out of (0,1)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
