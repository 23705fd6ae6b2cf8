// Package expr defines the typed expression language shared by SLIM guards,
// invariants, effects and data-port flows, together with its evaluation and
// linearity (affine-in-delay) analysis.
//
// The language deliberately mirrors the expressiveness of the paper's SLIM
// subset: Boolean, bounded integer and real data, plus clock and continuous
// variables whose values evolve linearly while a location is occupied.
// Expressions over continuous variables must be linear so that guard
// satisfaction as a function of the elapsed delay d is a union of intervals
// — exactly the structure the Progressive strategy samples from.
package expr

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime value kinds.
type Kind int

// Value kinds. Clock and continuous variables hold Real values at runtime;
// their distinct declaration types only affect time dynamics.
const (
	KindBool Kind = iota + 1
	KindInt
	KindReal
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindReal:
		return "real"
	default:
		return "invalid"
	}
}

// Value is a runtime value: a Boolean, an integer or a real.
type Value struct {
	kind Kind
	b    bool
	i    int64
	r    float64
}

// BoolVal returns a Boolean value.
func BoolVal(b bool) Value { return Value{kind: KindBool, b: b} }

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{kind: KindInt, i: i} }

// RealVal returns a real value.
func RealVal(r float64) Value { return Value{kind: KindReal, r: r} }

// Kind returns the value's kind. The zero Value has an invalid kind.
func (v Value) Kind() Kind { return v.kind }

// Bool returns the Boolean payload; it panics if the value is not a bool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("expr: Bool() on %s value", v.kind))
	}
	return v.b
}

// Int returns the integer payload; it panics if the value is not an int.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("expr: Int() on %s value", v.kind))
	}
	return v.i
}

// Real returns the real payload; it panics if the value is not a real.
func (v Value) Real() float64 {
	if v.kind != KindReal {
		panic(fmt.Sprintf("expr: Real() on %s value", v.kind))
	}
	return v.r
}

// AsFloat returns the numeric payload widened to float64; it panics for
// Boolean values.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindReal:
		return v.r
	default:
		panic(fmt.Sprintf("expr: AsFloat() on %s value", v.kind))
	}
}

// IsNumeric reports whether the value is an int or a real.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindReal }

// Equal reports semantic equality. Ints and reals compare numerically.
func (v Value) Equal(o Value) bool {
	if v.kind == KindBool || o.kind == KindBool {
		return v.kind == o.kind && v.b == o.b
	}
	if !v.IsNumeric() || !o.IsNumeric() {
		return false
	}
	return v.AsFloat() == o.AsFloat()
}

// Identical reports whether v and o are the same value bit for bit: the
// same kind and the same payload, a real compared by its IEEE-754 bits. So
// -0 and +0 differ, a NaN is identical to a NaN with the same bits, and an
// int is never identical to a real, whatever Equal says of them.
func (v Value) Identical(o Value) bool {
	return v.kind == o.kind && v.b == o.b && v.i == o.i &&
		math.Float64bits(v.r) == math.Float64bits(o.r)
}

// AppendText appends the value's literal rendering to buf, avoiding the
// allocations of String — used by hot paths such as state hashing.
func (v Value) AppendText(buf []byte) []byte {
	switch v.kind {
	case KindBool:
		if v.b {
			return append(buf, 't')
		}
		return append(buf, 'f')
	case KindInt:
		return strconv.AppendInt(buf, v.i, 10)
	case KindReal:
		return strconv.AppendFloat(buf, v.r, 'g', -1, 64)
	default:
		return append(buf, '?')
	}
}

// CompareText orders v and o as bytes.Compare orders their AppendText
// renderings, rendering neither bools nor ints: false < true, ints in
// decimal-text order (so 10 < 9 and -1 < -10), and reals by their 'g'
// text, rendered only when their bits differ (so -0 < 0).
func (v Value) CompareText(o Value) int {
	if v.kind == o.kind {
		switch v.kind {
		case KindBool:
			switch {
			case v.b == o.b:
				return 0
			case o.b:
				return -1
			}
			return 1
		case KindInt:
			return compareDecimal(v.i, o.i)
		case KindReal:
			if math.Float64bits(v.r) == math.Float64bits(o.r) {
				return 0
			}
		}
	}
	var a, b [32]byte
	return bytes.Compare(v.AppendText(a[:0]), o.AppendText(b[:0]))
}

// compareDecimal orders x and y as their decimal texts order bytewise. '-'
// sorts below every digit, so a negative comes first; otherwise both texts
// share their sign, and their digit strings compare on the leading digits
// they have in common, a digit string that is a prefix of the other
// sorting first.
func compareDecimal(x, y int64) int {
	if x == y {
		return 0
	}
	if (x < 0) != (y < 0) {
		if x < 0 {
			return -1
		}
		return 1
	}
	a, b := uint64(x), uint64(y)
	if x < 0 {
		a, b = -a, -b
	}
	da, db := decimalDigits(a), decimalDigits(b)
	for n := da; n > db; n-- {
		a /= 10
	}
	for n := db; n > da; n-- {
		b /= 10
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case da < db:
		return -1
	}
	return 1
}

func decimalDigits(u uint64) int {
	n := 1
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// String renders the value as SLIM literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindReal:
		return strconv.FormatFloat(v.r, 'g', -1, 64)
	default:
		return "<invalid>"
	}
}

// Type describes a declared variable type, including time dynamics and
// optional integer range bounds.
type Type struct {
	// Kind is the runtime kind of the variable's values.
	Kind Kind
	// Clock marks a clock variable: real-valued, derivative fixed at 1.
	Clock bool
	// Continuous marks a continuous variable: real-valued, derivative
	// set per location by the trajectory equations.
	Continuous bool
	// HasRange constrains an integer variable to [Min, Max].
	HasRange bool
	Min, Max int64
}

// BoolType returns the Boolean type.
func BoolType() Type { return Type{Kind: KindBool} }

// IntType returns the unbounded integer type.
func IntType() Type { return Type{Kind: KindInt} }

// IntRangeType returns the integer type restricted to [min, max].
func IntRangeType(min, max int64) Type {
	return Type{Kind: KindInt, HasRange: true, Min: min, Max: max}
}

// RealType returns the real type.
func RealType() Type { return Type{Kind: KindReal} }

// ClockType returns the clock type (real-valued, derivative 1).
func ClockType() Type { return Type{Kind: KindReal, Clock: true} }

// ContinuousType returns the continuous type (real-valued, per-location
// derivative).
func ContinuousType() Type { return Type{Kind: KindReal, Continuous: true} }

// Timed reports whether the variable's value changes as time elapses.
func (t Type) Timed() bool { return t.Clock || t.Continuous }

// String renders the type in SLIM-like syntax.
func (t Type) String() string {
	switch {
	case t.Clock:
		return "clock"
	case t.Continuous:
		return "continuous"
	case t.Kind == KindInt && t.HasRange:
		return fmt.Sprintf("int[%d..%d]", t.Min, t.Max)
	default:
		return t.Kind.String()
	}
}

// Admits reports whether v is a legal value for the type (kind matches and
// range bounds hold).
func (t Type) Admits(v Value) bool {
	if v.kind != t.Kind {
		return false
	}
	if t.Kind == KindInt && t.HasRange {
		return v.i >= t.Min && v.i <= t.Max
	}
	if t.Kind == KindReal {
		return !math.IsNaN(v.r)
	}
	return true
}

// Default returns the type's default initial value (false, the range
// minimum, or zero).
func (t Type) Default() Value {
	switch t.Kind {
	case KindBool:
		return BoolVal(false)
	case KindInt:
		if t.HasRange {
			return IntVal(t.Min)
		}
		return IntVal(0)
	default:
		return RealVal(0)
	}
}
