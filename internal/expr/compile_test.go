package expr

import (
	"errors"
	"math"
	"testing"

	"slimsim/internal/intervals"
	"slimsim/internal/rng"
)

// exprGen builds random expression trees over a small variable pool for
// equivalence testing. Trees may be ill-typed or divide by zero — exactly
// the cases where compiled and reference evaluation must also agree on
// the error.
func exprGen(r *rng.Source, depth int) Expr {
	if depth == 0 || r.IntN(4) == 0 {
		switch r.IntN(4) {
		case 0:
			return Literal(IntVal(int64(r.IntN(7)) - 3))
		case 1:
			return Literal(RealVal(float64(r.IntN(17)-8) * 0.25))
		case 2:
			return Literal(BoolVal(r.Bernoulli(0.5)))
		default:
			return Var("v", VarID(r.IntN(4)))
		}
	}
	switch r.IntN(8) {
	case 0:
		return Not(exprGen(r, depth-1))
	case 1:
		return Neg(exprGen(r, depth-1))
	case 2:
		return Ite(exprGen(r, depth-1), exprGen(r, depth-1), exprGen(r, depth-1))
	default:
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return Bin(ops[r.IntN(len(ops))], exprGen(r, depth-1), exprGen(r, depth-1))
	}
}

func genEnv(r *rng.Source) *mapEnv {
	env := &mapEnv{vals: map[VarID]Value{}, rates: map[VarID]float64{}}
	for id := VarID(0); id < 4; id++ {
		switch r.IntN(3) {
		case 0:
			env.vals[id] = BoolVal(r.Bernoulli(0.5))
		case 1:
			env.vals[id] = IntVal(int64(r.IntN(9)) - 4)
		default:
			env.vals[id] = RealVal(float64(r.IntN(33)-16) * 0.125)
		}
		if r.Bernoulli(0.5) {
			env.rates[id] = float64(r.IntN(9)-4) * 0.5
		}
	}
	return env
}

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestCompileAgreesWithEval fuzzes random (expression, environment) pairs
// through every compiled form and its tree-walking reference
// (reference_test.go): identical values, identical Affine coefficients,
// identical window sets and identical error messages. Windows are computed
// both with fresh sets and through one arena reused across trials.
func TestCompileAgreesWithEval(t *testing.T) {
	r := rng.New(7)
	var arena intervals.Arena
	for trial := 0; trial < 3000; trial++ {
		e := exprGen(r, 1+r.IntN(4))
		env := genEnv(r)

		wantV, wantErr := refEval(e, env)
		gotV, gotErr := Compile(e)(env)
		if !sameErr(wantErr, gotErr) || (wantErr == nil && !valueEqBits(wantV, gotV)) {
			t.Fatalf("Compile disagrees on %s:\n eval (%v, %v)\n code (%v, %v)", e, wantV, wantErr, gotV, gotErr)
		}

		wantB, wantErr := refEvalBool(e, env)
		gotB, gotErr := CompileBool(e)(env)
		if !sameErr(wantErr, gotErr) || wantB != gotB {
			t.Fatalf("CompileBool disagrees on %s:\n eval (%v, %v)\n code (%v, %v)", e, wantB, wantErr, gotB, gotErr)
		}

		wantA, wantErr := refAffine(e, env, env.timed)
		gotA, gotErr := CompileAffine(e, env.timed)(env)
		if !sameErr(wantErr, gotErr) || (wantErr == nil && (math.Float64bits(wantA.A) != math.Float64bits(gotA.A) ||
			math.Float64bits(wantA.B) != math.Float64bits(gotA.B))) {
			t.Fatalf("CompileAffine disagrees on %s:\n eval (%v, %v)\n code (%v, %v)", e, wantA, wantErr, gotA, gotErr)
		}

		wantW, wantErr := refWindow(e, env, env.timed)
		code := CompileWindow(e, env.timed)
		gotW, gotErr := code(env, nil)
		if !sameErr(wantErr, gotErr) || (wantErr == nil && !wantW.Equal(gotW)) {
			t.Fatalf("CompileWindow disagrees on %s:\n eval (%v, %v)\n code (%v, %v)", e, wantW, wantErr, gotW, gotErr)
		}
		arena.Reset()
		gotW, gotErr = code(env, &arena)
		if !sameErr(wantErr, gotErr) || (wantErr == nil && !wantW.Equal(gotW)) {
			t.Fatalf("CompileWindow in an arena disagrees on %s:\n eval (%v, %v)\n code (%v, %v)", e, wantW, wantErr, gotW, gotErr)
		}
	}
}

// valueEqBits compares values including the exact bit pattern of reals.
func valueEqBits(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindReal:
		return math.Float64bits(a.Real()) == math.Float64bits(b.Real())
	default:
		return a == b
	}
}

// TestCompileFoldsConstants checks that closed subtrees collapse at
// compile time while erroring ones stay lazy.
func TestCompileFoldsConstants(t *testing.T) {
	env := &mapEnv{vals: map[VarID]Value{0: IntVal(5)}}
	// (2 + 3) * 4 is closed and clean: the compiled form must not consult
	// the environment at all.
	closed := Bin(OpMul, Bin(OpAdd, Literal(IntVal(2)), Literal(IntVal(3))), Literal(IntVal(4)))
	v, err := Compile(closed)(nil)
	if err != nil || v.Int() != 20 {
		t.Fatalf("folded eval = (%v, %v), want 20", v, err)
	}
	// false and (1/0 = 1): folding must preserve the short-circuit that
	// hides the division by zero.
	guarded := Bin(OpAnd, False(), Bin(OpEq, Bin(OpDiv, Literal(IntVal(1)), Literal(IntVal(0))), Literal(IntVal(1))))
	b, err := CompileBool(guarded)(nil)
	if err != nil || b {
		t.Fatalf("short-circuit fold = (%v, %v), want false", b, err)
	}
	// 1/0 alone must stay lazy: compiling succeeds, evaluating errors.
	div := Bin(OpDiv, Literal(IntVal(1)), Literal(IntVal(0)))
	if _, err := Compile(div)(env); !errors.Is(err, ErrDivisionByZero) {
		t.Fatalf("lazy constant error = %v, want ErrDivisionByZero", err)
	}
	// (1/0 = 1) or true: evaluation short-circuits only left-to-right, so
	// the error must surface exactly as the reference walk orders it.
	leftErr := Bin(OpOr, Bin(OpEq, div, Literal(IntVal(1))), True())
	_, wantErr := refEval(leftErr, env)
	_, gotErr := Compile(leftErr)(env)
	if !sameErr(wantErr, gotErr) {
		t.Fatalf("error ordering: eval %v, code %v", wantErr, gotErr)
	}
}

// TestCompiledConstGuardWindowAllocs locks the allocation-free property
// this package promises the runtime: a compiled guard over discrete
// variables only (no clocks, no continuous flows) computes its enabling
// window with zero allocations.
func TestCompiledConstGuardWindowAllocs(t *testing.T) {
	// (v0 and v1 = 2) or not v2 — Boolean/integer refs, rate 0.
	g := Bin(OpOr,
		Bin(OpAnd, Var("v0", 0), Bin(OpEq, Var("v1", 1), Literal(IntVal(2)))),
		Not(Var("v2", 2)))
	env := &mapEnv{
		vals:  map[VarID]Value{0: BoolVal(true), 1: IntVal(2), 2: BoolVal(false)},
		rates: map[VarID]float64{},
	}
	code := CompileWindow(g, env.timed)
	if w, err := code(env, nil); err != nil || !w.Full() {
		t.Fatalf("window = (%v, %v), want full set", w, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := code(env, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("delay-constant guard window allocates %v times per run, want 0", allocs)
	}
}

// Benchmark expressions: a typical guard and a typical arithmetic effect.
var (
	benchGuard = Bin(OpAnd,
		Bin(OpGe, Var("x", 0), Literal(RealVal(1.5))),
		Bin(OpOr, Var("busy", 1), Bin(OpEq, Var("lvl", 2), Literal(IntVal(2)))))
	benchEnv = &mapEnv{
		vals:  map[VarID]Value{0: RealVal(2.0), 1: BoolVal(false), 2: IntVal(2)},
		rates: map[VarID]float64{0: 1},
	}
)

func BenchmarkCompiledEval(b *testing.B) {
	b.Run("interp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refEvalBool(benchGuard, benchEnv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		code := CompileBool(benchGuard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := code(benchEnv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interp-window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refWindow(benchGuard, benchEnv, benchEnv.timed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-window", func(b *testing.B) {
		code := CompileWindow(benchGuard, benchEnv.timed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := code(benchEnv, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
