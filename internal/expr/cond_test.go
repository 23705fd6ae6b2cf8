package expr

import (
	"testing"
)

func TestCondEval(t *testing.T) {
	env := &mapEnv{vals: map[VarID]Value{0: BoolVal(true), 1: IntVal(4)}}
	b, x := Var("b", 0), Var("x", 1)
	e := Ite(b, x, Literal(IntVal(0)))
	code := Compile(e)
	got, err := code(env)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got.Int() != 4 {
		t.Errorf("Ite true branch = %v, want 4", got)
	}
	env.vals[0] = BoolVal(false)
	got, err = code(env)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got.Int() != 0 {
		t.Errorf("Ite false branch = %v, want 0", got)
	}
}

func TestCondCheck(t *testing.T) {
	decls := DeclMap{0: BoolType(), 1: IntType(), 2: RealType()}
	b, x, y := Var("b", 0), Var("x", 1), Var("y", 2)
	k, err := Check(Ite(b, x, x), decls)
	if err != nil || k != KindInt {
		t.Errorf("Check(Ite int,int) = (%v,%v), want (int,nil)", k, err)
	}
	k, err = Check(Ite(b, x, y), decls)
	if err != nil || k != KindReal {
		t.Errorf("Check(Ite int,real) = (%v,%v), want (real,nil)", k, err)
	}
	if _, err := Check(Ite(b, b, x), decls); err == nil {
		t.Error("Check should reject bool/int branches")
	}
	if _, err := Check(Ite(x, x, x), decls); err == nil {
		t.Error("Check should reject non-bool condition")
	}
}

func TestCondAffine(t *testing.T) {
	env := affEnv() // var 0: clock x rate 1, var 2: int n=3, var 3: bool b=true
	x, n, b := Var("x", 0), Var("n", 2), Var("b", 3)
	a, err := CompileAffine(Ite(b, x, n), env.timed)(env)
	if err != nil {
		t.Fatalf("CompileAffine: %v", err)
	}
	if (a != Affine{A: 1, B: 1}) {
		t.Errorf("affine of chosen branch = %+v, want {1 1}", a)
	}
}

func TestCondWindow(t *testing.T) {
	env := affEnv() // x(d)=1+d
	x, b := Var("x", 0), Var("b", 3)
	// if b then x >= 3 else false  ⇔  d >= 2 (b is true)
	w, err := CompileWindow(Ite(b, Bin(OpGe, x, Literal(RealVal(3))), False()), env.timed)(env, nil)
	if err != nil {
		t.Fatalf("CompileWindow: %v", err)
	}
	if !w.Contains(2) || !w.Contains(10) || w.Contains(1.5) {
		t.Errorf("conditional window = %v, want [2,inf)", w)
	}
	// Time-dependent condition: if x >= 3 then x >= 5 else x >= 1
	// ⇔ (d>=2 and d>=4) or (d<2 and d>=0) ⇔ d>=4 or 0<=d<2.
	w, err = CompileWindow(Ite(Bin(OpGe, x, Literal(RealVal(3))),
		Bin(OpGe, x, Literal(RealVal(5))),
		Bin(OpGe, x, Literal(RealVal(1)))), env.timed)(env, nil)
	if err != nil {
		t.Fatalf("CompileWindow: %v", err)
	}
	for _, d := range []float64{0, 1.9, 4, 7} {
		if !w.Contains(d) {
			t.Errorf("window %v should contain %v", w, d)
		}
	}
	for _, d := range []float64{2, 3, 3.9} {
		if w.Contains(d) {
			t.Errorf("window %v should not contain %v", w, d)
		}
	}
}

func TestCondTimedLinear(t *testing.T) {
	decls := DeclMap{0: ClockType(), 1: BoolType(), 2: RealType()}
	c, b, r := Var("c", 0), Var("b", 1), Var("r", 2)
	if err := TimedLinear(Ite(b, c, r), decls); err != nil {
		t.Errorf("discrete condition should be linear: %v", err)
	}
	// Timed condition with numeric branches is rejected.
	if err := TimedLinear(Ite(Bin(OpGe, c, Literal(RealVal(1))), r, r), decls); err == nil {
		t.Error("timed condition with numeric branches should be rejected")
	}
	// Timed condition with Boolean branches is fine (CompileWindow handles it).
	if err := TimedLinear(Ite(Bin(OpGe, c, Literal(RealVal(1))), b, True()), decls); err != nil {
		t.Errorf("timed condition with bool branches should pass: %v", err)
	}
}
