package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slimsim/internal/intervals"
)

func affEnv() *mapEnv {
	// Var 0: clock x, value 1, rate 1.
	// Var 1: continuous v, value 10, rate -2.
	// Var 2: discrete int n, value 3, rate 0.
	// Var 3: bool b = true.
	return &mapEnv{
		vals: map[VarID]Value{
			0: RealVal(1),
			1: RealVal(10),
			2: IntVal(3),
			3: BoolVal(true),
		},
		rates: map[VarID]float64{0: 1, 1: -2, 2: 0, 3: 0},
	}
}

func TestEvalAffine(t *testing.T) {
	env := affEnv()
	x, v, n := Var("x", 0), Var("v", 1), Var("n", 2)
	tests := []struct {
		name string
		e    Expr
		want Affine
	}{
		{"clock", x, Affine{A: 1, B: 1}},
		{"continuous", v, Affine{A: 10, B: -2}},
		{"discrete const", n, Affine{A: 3, B: 0}},
		{"sum", Bin(OpAdd, x, v), Affine{A: 11, B: -1}},
		{"scale", Bin(OpMul, Literal(RealVal(3)), x), Affine{A: 3, B: 3}},
		{"scale right", Bin(OpMul, x, Literal(RealVal(3))), Affine{A: 3, B: 3}},
		{"div const", Bin(OpDiv, v, Literal(RealVal(2))), Affine{A: 5, B: -1}},
		{"neg", Neg(x), Affine{A: -1, B: -1}},
		{"const expr", Bin(OpAdd, n, Literal(IntVal(4))), Affine{A: 7, B: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := CompileAffine(tt.e, env.timed)(env)
			if err != nil {
				t.Fatalf("CompileAffine: %v", err)
			}
			if got != tt.want {
				t.Errorf("CompileAffine = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestEvalAffineRejectsNonLinear(t *testing.T) {
	env := affEnv()
	x, v, b := Var("x", 0), Var("v", 1), Var("b", 3)
	for _, e := range []Expr{
		Bin(OpMul, x, v),
		Bin(OpDiv, Literal(RealVal(1)), x),
		Bin(OpMod, x, Literal(RealVal(2))),
		b,
		Not(b),
	} {
		if _, err := CompileAffine(e, env.timed)(env); err == nil {
			t.Errorf("CompileAffine(%s) should fail", e)
		}
	}
}

func TestWindowComparisons(t *testing.T) {
	env := affEnv()
	x, v := Var("x", 0), Var("v", 1) // x(d)=1+d, v(d)=10-2d
	tests := []struct {
		name string
		e    Expr
		// sample points with expected membership
		in  []float64
		out []float64
	}{
		// x >= 3  ⇔  d >= 2
		{"clock ge", Bin(OpGe, x, Literal(RealVal(3))), []float64{2, 5}, []float64{0, 1.9}},
		// v <= 4  ⇔  10-2d <= 4  ⇔  d >= 3
		{"continuous le", Bin(OpLe, v, Literal(RealVal(4))), []float64{3, 10}, []float64{0, 2.9}},
		// x = 2  ⇔  d = 1
		{"equality point", Bin(OpEq, x, Literal(RealVal(2))), []float64{1}, []float64{0.999, 1.001}},
		// x > 1 and v > 2  ⇔  d > 0 and d < 4
		{"conjunction", Bin(OpAnd, Bin(OpGt, x, Literal(RealVal(1))), Bin(OpGt, v, Literal(RealVal(2)))), []float64{1, 3.9}, []float64{0, 4}},
		// x < 1 or x > 3  ⇔  d < 0 or d > 2
		{"disjunction", Bin(OpOr, Bin(OpLt, x, Literal(RealVal(1))), Bin(OpGt, x, Literal(RealVal(3)))), []float64{-1, 3}, []float64{0, 1, 2}},
		// not (x >= 3)  ⇔  d < 2
		{"negation", Not(Bin(OpGe, x, Literal(RealVal(3)))), []float64{0, 1.99}, []float64{2, 5}},
		// x != 2  ⇔  d != 1
		{"inequation", Bin(OpNe, x, Literal(RealVal(2))), []float64{0, 2}, []float64{1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			set, err := CompileWindow(tt.e, env.timed)(env, nil)
			if err != nil {
				t.Fatalf("CompileWindow: %v", err)
			}
			for _, d := range tt.in {
				if !set.Contains(d) {
					t.Errorf("window %v should contain %v", set, d)
				}
			}
			for _, d := range tt.out {
				if set.Contains(d) {
					t.Errorf("window %v should not contain %v", set, d)
				}
			}
		})
	}
}

func TestWindowBooleanConstants(t *testing.T) {
	env := affEnv()
	b := Var("b", 3)
	set, err := CompileWindow(b, env.timed)(env, nil)
	if err != nil {
		t.Fatalf("CompileWindow: %v", err)
	}
	if !set.Equal(intervals.FullSet()) {
		t.Errorf("window of true bool var = %v, want full set", set)
	}
	set, err = CompileWindow(Not(b), env.timed)(env, nil)
	if err != nil {
		t.Fatalf("CompileWindow: %v", err)
	}
	if !set.Empty() {
		t.Errorf("window of negated true bool = %v, want empty", set)
	}
	// Boolean equality with a literal.
	set, err = CompileWindow(Bin(OpEq, b, False()), env.timed)(env, nil)
	if err != nil {
		t.Fatalf("CompileWindow: %v", err)
	}
	if !set.Empty() {
		t.Errorf("window of b = false with b true = %v, want empty", set)
	}
}

func TestWindowConstantComparison(t *testing.T) {
	env := affEnv()
	n := Var("n", 2) // constant 3
	set, err := CompileWindow(Bin(OpLt, n, Literal(IntVal(5))), env.timed)(env, nil)
	if err != nil {
		t.Fatalf("CompileWindow: %v", err)
	}
	if !set.Equal(intervals.FullSet()) {
		t.Errorf("constant-true comparison window = %v, want full", set)
	}
	set, err = CompileWindow(Bin(OpGt, n, Literal(IntVal(5))), env.timed)(env, nil)
	if err != nil {
		t.Fatalf("CompileWindow: %v", err)
	}
	if !set.Empty() {
		t.Errorf("constant-false comparison window = %v, want empty", set)
	}
}

// TestQuickWindowAgreesWithPointEval cross-validates CompileWindow against direct
// evaluation with manually advanced variable values at random delays.
func TestQuickWindowAgreesWithPointEval(t *testing.T) {
	x, v, n := Var("x", 0), Var("v", 1), Var("n", 2)
	exprs := []Expr{
		Bin(OpGe, x, Literal(RealVal(3))),
		Bin(OpLe, v, Literal(RealVal(4))),
		Bin(OpAnd, Bin(OpGe, x, Literal(RealVal(2))), Bin(OpLe, x, Literal(RealVal(6)))),
		Bin(OpOr, Bin(OpLt, v, Literal(RealVal(0))), Bin(OpGt, x, n)),
		Not(Bin(OpEq, n, Literal(IntVal(3)))),
		Bin(OpGt, Bin(OpAdd, x, v), Bin(OpMul, Literal(RealVal(2)), n)),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		env := &mapEnv{
			vals: map[VarID]Value{
				0: RealVal(r.Float64() * 10),
				1: RealVal(r.Float64()*20 - 10),
				2: IntVal(int64(r.Intn(7))),
			},
			rates: map[VarID]float64{
				0: 1,
				1: math.Round((r.Float64()*6-3)*4) / 4,
				2: 0,
			},
		}
		e := exprs[r.Intn(len(exprs))]
		set, err := CompileWindow(e, env.timed)(env, nil)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			d := r.Float64() * 12
			// Advance the environment by d.
			adv := &mapEnv{vals: map[VarID]Value{
				0: RealVal(env.vals[0].Real() + d*env.rates[0]),
				1: RealVal(env.vals[1].Real() + d*env.rates[1]),
				2: env.vals[2],
			}}
			want, err := CompileBool(e)(adv)
			if err != nil {
				return false
			}
			// Skip points within floating-point distance of a
			// window boundary, where the two methods may
			// legitimately disagree by rounding.
			if nearBoundary(set, d, 1e-9) {
				continue
			}
			if set.Contains(d) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func nearBoundary(s intervals.Set, d, eps float64) bool {
	for _, iv := range s.Intervals() {
		if math.Abs(d-iv.Lo) < eps || math.Abs(d-iv.Hi) < eps {
			return true
		}
	}
	return false
}

// TestWindowValueSemantics checks that the parts of a timed guard which
// read no timed variable keep value semantics: integer division in the
// operand of a clock comparison, and a time-invariant condition that
// selects one branch without evaluating the other.
func TestWindowValueSemantics(t *testing.T) {
	x, n, y := Var("x", 0), Var("n", 1), Var("y", 2)
	env := &mapEnv{
		vals:  map[VarID]Value{0: RealVal(0), 1: IntVal(7), 2: IntVal(0)},
		rates: map[VarID]float64{0: 1},
	}
	tests := []struct {
		name string
		e    Expr
		want intervals.Set
	}{
		// x >= 7 / 2 = 3 (integer division), not 3.5.
		{"int div operand", Bin(OpGe, x, Bin(OpDiv, n, Literal(IntVal(2)))),
			intervals.FromInterval(intervals.AtLeast(3))},
		// if y = 0 then x >= 1 else x >= 10 / y: the else branch, which
		// divides by zero, is never evaluated.
		{"chosen branch", Ite(Bin(OpEq, y, Literal(IntVal(0))),
			Bin(OpGe, x, Literal(IntVal(1))),
			Bin(OpGe, x, Bin(OpDiv, Literal(IntVal(10)), y))),
			intervals.FromInterval(intervals.AtLeast(1))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := refWindow(tt.e, env, env.timed)
			if err != nil || !got.Equal(tt.want) {
				t.Errorf("refWindow = (%v, %v), want %v", got, err, tt.want)
			}
			got, err = CompileWindow(tt.e, env.timed)(env, nil)
			if err != nil || !got.Equal(tt.want) {
				t.Errorf("CompileWindow = (%v, %v), want %v", got, err, tt.want)
			}
		})
	}
}
