package expr

import (
	"bytes"
	"math"
	"testing"
)

// TestCompareTextMatchesAppendText checks CompareText against bytes.Compare
// of the rendered texts on every pair from a pool whose numeric and text
// orders disagree, mixed kinds included.
func TestCompareTextMatchesAppendText(t *testing.T) {
	var pool []Value
	for _, i := range []int64{0, 1, 9, 10, 11, 19, 99, 100, 101, 1000, 12345, -1, -9, -10, -11, -100, -1000,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1} {
		pool = append(pool, IntVal(i))
	}
	for _, r := range []float64{math.Copysign(0, -1), 0, 1, -1, 1.5, 0.1, 1e-7, 1e-6, 1e20, 1e21, 2e21, -1e21,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		pool = append(pool, RealVal(r))
	}
	pool = append(pool, BoolVal(false), BoolVal(true), Value{})
	for _, x := range pool {
		for _, y := range pool {
			want := bytes.Compare(x.AppendText(nil), y.AppendText(nil))
			if got := x.CompareText(y); got != want {
				t.Errorf("%s.CompareText(%s) = %d, want %d", x.AppendText(nil), y.AppendText(nil), got, want)
			}
		}
	}
}

// TestIdentical checks bit identity on pairs that Equal and == get wrong
// for it: signed zeros, NaNs with the same and with different bits, and an
// int against the real of the same number.
func TestIdentical(t *testing.T) {
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{RealVal(0), RealVal(0), true},
		{RealVal(0), RealVal(negZero), false},
		{RealVal(negZero), RealVal(negZero), true},
		{RealVal(nan), RealVal(nan), true},
		{RealVal(nan), RealVal(otherNaN), false},
		{RealVal(1.5), RealVal(1.5), true},
		{RealVal(1.5), RealVal(math.Nextafter(1.5, 2)), false},
		{IntVal(2), RealVal(2), false},
		{IntVal(-3), IntVal(-3), true},
		{IntVal(0), BoolVal(false), false},
		{BoolVal(true), BoolVal(true), true},
		{BoolVal(true), BoolVal(false), false},
		{Value{}, Value{}, true},
		{Value{}, RealVal(0), false},
	} {
		if got := c.a.Identical(c.b); got != c.want {
			t.Errorf("%s.Identical(%s) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Identical(c.a); got != c.want {
			t.Errorf("%s.Identical(%s) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}
