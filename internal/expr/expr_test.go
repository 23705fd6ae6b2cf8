package expr

import (
	"errors"
	"strings"
	"testing"
)

// mapEnv is a simple Env/RateEnv backed by slices for testing.
type mapEnv struct {
	vals  map[VarID]Value
	rates map[VarID]float64
}

func (m *mapEnv) VarValue(id VarID) Value  { return m.vals[id] }
func (m *mapEnv) VarRate(id VarID) float64 { return m.rates[id] }

// timed classifies the variables with a nonzero rate as timed (see Timed).
func (m *mapEnv) timed(id VarID) bool { return m.rates[id] != 0 }

func TestValueAccessors(t *testing.T) {
	if !BoolVal(true).Bool() {
		t.Error("BoolVal(true).Bool() = false")
	}
	if IntVal(42).Int() != 42 {
		t.Error("IntVal round-trip failed")
	}
	if RealVal(2.5).Real() != 2.5 {
		t.Error("RealVal round-trip failed")
	}
	if IntVal(3).AsFloat() != 3.0 {
		t.Error("AsFloat on int failed")
	}
	if !IntVal(3).Equal(RealVal(3)) {
		t.Error("numeric cross-kind equality failed")
	}
	if BoolVal(true).Equal(IntVal(1)) {
		t.Error("bool should not equal int")
	}
}

func TestValuePanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"Bool on int", func() { IntVal(1).Bool() }},
		{"Int on real", func() { RealVal(1).Int() }},
		{"Real on bool", func() { BoolVal(true).Real() }},
		{"AsFloat on bool", func() { BoolVal(true).AsFloat() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestTypeAdmitsAndDefault(t *testing.T) {
	tr := IntRangeType(1, 5)
	if !tr.Admits(IntVal(3)) || tr.Admits(IntVal(0)) || tr.Admits(IntVal(6)) {
		t.Error("range admission incorrect")
	}
	if tr.Default().Int() != 1 {
		t.Errorf("range default = %v, want 1", tr.Default())
	}
	if BoolType().Default().Bool() {
		t.Error("bool default should be false")
	}
	if !ClockType().Timed() || !ContinuousType().Timed() || RealType().Timed() {
		t.Error("Timed() classification wrong")
	}
}

func TestEvalArithmetic(t *testing.T) {
	env := &mapEnv{vals: map[VarID]Value{0: IntVal(7), 1: RealVal(2.0)}}
	x, y := Var("x", 0), Var("y", 1)
	tests := []struct {
		name string
		e    Expr
		want Value
	}{
		{"int add", Bin(OpAdd, x, Literal(IntVal(3))), IntVal(10)},
		{"int div truncates", Bin(OpDiv, x, Literal(IntVal(2))), IntVal(3)},
		{"int mod", Bin(OpMod, x, Literal(IntVal(4))), IntVal(3)},
		{"mixed widens", Bin(OpMul, x, y), RealVal(14)},
		{"neg", Neg(x), IntVal(-7)},
		{"sub", Bin(OpSub, y, x), RealVal(-5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Compile(tt.e)(env)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if !got.Equal(tt.want) || got.Kind() != tt.want.Kind() {
				t.Errorf("Compile = %v (%v), want %v (%v)", got, got.Kind(), tt.want, tt.want.Kind())
			}
		})
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	env := &mapEnv{vals: map[VarID]Value{0: IntVal(5), 1: BoolVal(true)}}
	x, b := Var("x", 0), Var("b", 1)
	tests := []struct {
		name string
		e    Expr
		want bool
	}{
		{"lt", Bin(OpLt, x, Literal(IntVal(6))), true},
		{"le eq", Bin(OpLe, x, Literal(IntVal(5))), true},
		{"gt", Bin(OpGt, x, Literal(IntVal(5))), false},
		{"eq cross-kind", Bin(OpEq, x, Literal(RealVal(5))), true},
		{"ne", Bin(OpNe, x, Literal(IntVal(5))), false},
		{"and", Bin(OpAnd, b, Bin(OpLt, x, Literal(IntVal(10)))), true},
		{"or short", Bin(OpOr, b, Bin(OpDiv, x, Literal(IntVal(0)))), true},
		{"not", Not(b), false},
		{"bool eq", Bin(OpEq, b, True()), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := CompileBool(tt.e)(env)
			if err != nil {
				t.Fatalf("CompileBool: %v", err)
			}
			if got != tt.want {
				t.Errorf("CompileBool = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestShortCircuitAvoidsError(t *testing.T) {
	env := &mapEnv{vals: map[VarID]Value{0: IntVal(0)}}
	x := Var("x", 0)
	// x != 0 and (1/x > 0): the division by zero must not be reached.
	e := Bin(OpAnd, Bin(OpNe, x, Literal(IntVal(0))), Bin(OpGt, Bin(OpDiv, Literal(IntVal(1)), x), Literal(IntVal(0))))
	got, err := CompileBool(e)(env)
	if err != nil {
		t.Fatalf("short-circuit failed: %v", err)
	}
	if got {
		t.Error("expected false")
	}
}

func TestDivisionByZero(t *testing.T) {
	env := &mapEnv{vals: map[VarID]Value{}}
	_, err := Compile(Bin(OpDiv, Literal(IntVal(1)), Literal(IntVal(0))))(env)
	if !errors.Is(err, ErrDivisionByZero) {
		t.Errorf("got %v, want ErrDivisionByZero", err)
	}
	_, err = Compile(Bin(OpMod, Literal(RealVal(1)), Literal(RealVal(0))))(env)
	if !errors.Is(err, ErrDivisionByZero) {
		t.Errorf("real mod: got %v, want ErrDivisionByZero", err)
	}
}

func TestEvalTypeErrors(t *testing.T) {
	env := &mapEnv{vals: map[VarID]Value{0: BoolVal(true)}}
	b := Var("b", 0)
	for _, e := range []Expr{
		Bin(OpAdd, b, Literal(IntVal(1))),
		Bin(OpLt, b, Literal(IntVal(1))),
		Not(Literal(IntVal(1))),
		Neg(b),
	} {
		if _, err := Compile(e)(env); err == nil {
			t.Errorf("expected type error for %s", e)
		}
	}
}

func TestUnresolvedRef(t *testing.T) {
	env := &mapEnv{}
	if _, err := Compile(&Ref{Name: "ghost", ID: NoVar})(env); err == nil {
		t.Error("expected error for unresolved reference")
	}
}

func TestResolve(t *testing.T) {
	e := Bin(OpAnd, &Ref{Name: "a", ID: NoVar}, Bin(OpLt, &Ref{Name: "b", ID: NoVar}, Literal(IntVal(3))))
	table := map[string]VarID{"a": 0, "b": 1}
	err := Resolve(e, func(name string) (VarID, bool) {
		id, ok := table[name]
		return id, ok
	})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	ids := Refs(e)
	if _, ok := ids[0]; !ok {
		t.Error("resolved id 0 missing from Refs")
	}
	if _, ok := ids[1]; !ok {
		t.Error("resolved id 1 missing from Refs")
	}
}

func TestResolveReportsMissing(t *testing.T) {
	e := Bin(OpOr, &Ref{Name: "gone", ID: NoVar}, &Ref{Name: "away", ID: NoVar})
	err := Resolve(e, func(string) (VarID, bool) { return NoVar, false })
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "gone") || !strings.Contains(err.Error(), "away") {
		t.Errorf("error %q should name both missing references", err)
	}
}

func TestAndOrHelpers(t *testing.T) {
	env := &mapEnv{}
	if got, _ := CompileBool(And())(env); !got {
		t.Error("empty And should be true")
	}
	if got, _ := CompileBool(Or())(env); got {
		t.Error("empty Or should be false")
	}
	if got, _ := CompileBool(And(True(), True(), False()))(env); got {
		t.Error("And(t,t,f) should be false")
	}
	if got, _ := CompileBool(Or(False(), True()))(env); !got {
		t.Error("Or(f,t) should be true")
	}
}

func TestCheck(t *testing.T) {
	decls := DeclMap{0: IntType(), 1: BoolType(), 2: RealType()}
	x, b, y := Var("x", 0), Var("b", 1), Var("y", 2)
	tests := []struct {
		name    string
		e       Expr
		want    Kind
		wantErr bool
	}{
		{"int arith", Bin(OpAdd, x, x), KindInt, false},
		{"widening", Bin(OpMul, x, y), KindReal, false},
		{"comparison", Bin(OpLe, x, y), KindBool, false},
		{"bool eq", Bin(OpEq, b, True()), KindBool, false},
		{"bool plus int", Bin(OpAdd, b, x), 0, true},
		{"bool lt", Bin(OpLt, b, x), 0, true},
		{"and of ints", Bin(OpAnd, x, x), 0, true},
		{"not int", Not(x), 0, true},
		{"neg bool", Neg(b), 0, true},
		{"bool eq int", Bin(OpEq, b, x), 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Check(tt.e, decls)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Check err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("Check = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCheckBool(t *testing.T) {
	decls := DeclMap{0: IntType()}
	if err := CheckBool(Bin(OpLt, Var("x", 0), Literal(IntVal(3))), decls); err != nil {
		t.Errorf("CheckBool on comparison: %v", err)
	}
	if err := CheckBool(Var("x", 0), decls); err == nil {
		t.Error("CheckBool should reject int expression")
	}
}

func TestTimedLinear(t *testing.T) {
	decls := DeclMap{0: ClockType(), 1: RealType(), 2: ContinuousType()}
	c, r, u := Var("c", 0), Var("r", 1), Var("u", 2)
	ok := []Expr{
		Bin(OpAdd, c, r),
		Bin(OpMul, r, c),
		Bin(OpDiv, c, Literal(RealVal(2))),
		Bin(OpSub, u, c),
	}
	for _, e := range ok {
		if err := TimedLinear(e, decls); err != nil {
			t.Errorf("TimedLinear(%s) = %v, want nil", e, err)
		}
	}
	bad := []Expr{
		Bin(OpMul, c, u),
		Bin(OpDiv, r, c),
		Bin(OpMod, r, u),
	}
	for _, e := range bad {
		if err := TimedLinear(e, decls); err == nil {
			t.Errorf("TimedLinear(%s) = nil, want error", e)
		}
	}
}
