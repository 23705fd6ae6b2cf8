package bisim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slimsim/internal/ctmc"
)

func TestLumpSymmetricBranches(t *testing.T) {
	// Two identical parallel branches 0→{1,2}→3; states 1 and 2 are
	// bisimilar and must collapse.
	c := &ctmc.CTMC{
		Edges: [][]ctmc.Edge{
			{{To: 1, Rate: 1}, {To: 2, Rate: 1}},
			{{To: 3, Rate: 2}},
			{{To: 3, Rate: 2}},
			nil,
		},
		Initial: []float64{1, 0, 0, 0},
		Goal:    []bool{false, false, false, true},
	}
	res, err := Lump(c)
	if err != nil {
		t.Fatalf("Lump: %v", err)
	}
	if res.Blocks != 3 {
		t.Errorf("blocks = %d, want 3 (states 1 and 2 lumped)", res.Blocks)
	}
	if res.BlockOf[1] != res.BlockOf[2] {
		t.Error("bisimilar states 1 and 2 not lumped")
	}
	if res.BlockOf[0] == res.BlockOf[3] {
		t.Error("initial and goal states wrongly lumped")
	}
}

func TestLumpRespectsLabels(t *testing.T) {
	// Identical dynamics but different labels must not lump.
	c := &ctmc.CTMC{
		Edges: [][]ctmc.Edge{
			{{To: 1, Rate: 1}, {To: 2, Rate: 1}},
			nil,
			nil,
		},
		Initial: []float64{1, 0, 0},
		Goal:    []bool{false, true, false},
	}
	res, err := Lump(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockOf[1] == res.BlockOf[2] {
		t.Error("states with different labels lumped")
	}
}

func TestLumpDistinguishesRates(t *testing.T) {
	// Same structure, different rates into the goal: no lumping.
	c := &ctmc.CTMC{
		Edges: [][]ctmc.Edge{
			{{To: 1, Rate: 1}, {To: 2, Rate: 1}},
			{{To: 3, Rate: 1}},
			{{To: 3, Rate: 5}},
			nil,
		},
		Initial: []float64{1, 0, 0, 0},
		Goal:    []bool{false, false, false, true},
	}
	res, err := Lump(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockOf[1] == res.BlockOf[2] {
		t.Error("states with different exit rates lumped")
	}
}

func TestLumpPreservesReachability(t *testing.T) {
	c := &ctmc.CTMC{
		Edges: [][]ctmc.Edge{
			{{To: 1, Rate: 0.5}, {To: 2, Rate: 0.5}},
			{{To: 3, Rate: 2}, {To: 0, Rate: 1}},
			{{To: 3, Rate: 2}, {To: 0, Rate: 1}},
			nil,
		},
		Initial: []float64{1, 0, 0, 0},
		Goal:    []bool{false, false, false, true},
	}
	res, err := Lump(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []float64{0.5, 1, 4} {
		orig, err := c.ReachWithin(tb, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		lumped, err := res.Quotient.ReachWithin(tb, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(orig-lumped) > 1e-8 {
			t.Errorf("t=%v: original %v vs quotient %v", tb, orig, lumped)
		}
	}
}

// randomChain builds a small random CTMC with goal labels.
func randomChain(r *rand.Rand) *ctmc.CTMC {
	n := 2 + r.Intn(6)
	c := &ctmc.CTMC{
		Edges:   make([][]ctmc.Edge, n),
		Initial: make([]float64, n),
		Goal:    make([]bool, n),
	}
	c.Initial[0] = 1
	for s := 0; s < n; s++ {
		c.Goal[s] = r.Intn(4) == 0
		k := r.Intn(3)
		for j := 0; j < k; j++ {
			// Quantized rates make accidental lumpability common,
			// exercising the refinement loop harder.
			rate := float64(1+r.Intn(4)) / 2
			c.Edges[s] = append(c.Edges[s], ctmc.Edge{To: r.Intn(n), Rate: rate})
		}
	}
	return c
}

// TestQuickLumpPreservesTransientMeasure is the key soundness property of
// the Sigref stand-in: for arbitrary chains the quotient must give the same
// time-bounded reachability probability.
func TestQuickLumpPreservesTransientMeasure(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r)
		res, err := Lump(c)
		if err != nil {
			return false
		}
		if res.Blocks > c.NumStates() {
			return false
		}
		for _, tb := range []float64{0.3, 1.7} {
			orig, err1 := c.ReachWithin(tb, 1e-11)
			lumped, err2 := res.Quotient.ReachWithin(tb, 1e-11)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(orig-lumped) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLumpAllSameLabel(t *testing.T) {
	c := &ctmc.CTMC{
		Edges:   [][]ctmc.Edge{{{To: 1, Rate: 1}}, {{To: 0, Rate: 1}}},
		Initial: []float64{1, 0},
		Goal:    []bool{false, false},
	}
	res, err := Lump(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 1 {
		t.Errorf("blocks = %d, want 1 (fully symmetric unlabeled chain)", res.Blocks)
	}
}

func TestLumpEmptyChainRejected(t *testing.T) {
	if _, err := Lump(&ctmc.CTMC{}); err == nil {
		t.Error("expected error for empty chain")
	}
}

// TestQuantizeCarriesAtPowerOfTwo pins the carry of quantize's rounding: a
// sum that lands one ulp below a power of two must quantize like the power
// itself, or summing the same rates in another order splits bisimilar
// states.
func TestQuantizeCarriesAtPowerOfTwo(t *testing.T) {
	// Summed at run time: Go folds constant expressions exactly.
	sum := func(rates ...float64) float64 {
		acc := 0.0
		for _, r := range rates {
			acc += r
		}
		return acc
	}
	below := sum(0.8, 1.5, 0.8, 0.9) // 3.9999999999999996
	exact := sum(0.9, 0.8, 1.5, 0.8) // 4
	if below == exact {
		t.Fatalf("sums %v and %v should differ in the last ulp", below, exact)
	}
	bm, be := quantize(below)
	em, ee := quantize(exact)
	if bm != em || be != ee {
		t.Errorf("quantize(%v) = (%d, %d), quantize(%v) = (%d, %d); want equal", below, bm, be, exact, em, ee)
	}
	if em != 1<<39 || ee != 3 {
		t.Errorf("quantize(4) = (%d, %d), want (%d, 3)", em, ee, int64(1)<<39)
	}
}
