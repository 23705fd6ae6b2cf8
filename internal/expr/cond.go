package expr

import (
	"fmt"

	"slimsim/internal/intervals"
)

// Cond is a conditional expression `if If then Then else Else`. It is used
// chiefly to compile mode-dependent data-port connections: an input port's
// value selects between the connected source and a default depending on the
// active modes.
type Cond struct {
	If, Then, Else Expr
}

// Ite returns the conditional node.
func Ite(ifE, thenE, elseE Expr) *Cond { return &Cond{If: ifE, Then: thenE, Else: elseE} }

// Eval implements Expr.
func (c *Cond) Eval(env Env) (Value, error) {
	b, err := EvalBool(c.If, env)
	if err != nil {
		return Value{}, err
	}
	if b {
		return c.Then.Eval(env)
	}
	return c.Else.Eval(env)
}

// String implements Expr.
func (c *Cond) String() string {
	return fmt.Sprintf("(if %s then %s else %s)", c.If, c.Then, c.Else)
}

func (c *Cond) walk(fn func(Expr)) {
	fn(c)
	c.If.walk(fn)
	c.Then.walk(fn)
	c.Else.walk(fn)
}

// evalAffineCond handles Cond in timed numeric contexts. The condition must
// be delay-constant (it may not reference clock or continuous variables);
// the chosen branch is then analyzed as usual. The restriction is enforced
// statically by TimedLinear.
func evalAffineCond(c *Cond, env RateEnv, timed Timed) (Affine, error) {
	b, err := EvalBool(c.If, env)
	if err != nil {
		return Affine{}, err
	}
	if b {
		return EvalAffine(c.Then, env, timed)
	}
	return EvalAffine(c.Else, env, timed)
}

// windowCond handles Cond used as a Boolean guard. A delay-constant
// condition selects one branch, as evaluation does; a timed one gives
// (W_if ∩ W_then) ∪ (¬W_if ∩ W_else), which is exact even for
// time-dependent conditions.
func windowCond(c *Cond, env RateEnv, timed Timed) (intervals.Set, error) {
	if !readsTimed(c.If, timed) {
		b, err := EvalBool(c.If, env)
		if err != nil {
			return intervals.Set{}, err
		}
		if b {
			return Window(c.Then, env, timed)
		}
		return Window(c.Else, env, timed)
	}
	wIf, err := Window(c.If, env, timed)
	if err != nil {
		return intervals.Set{}, err
	}
	wThen, err := Window(c.Then, env, timed)
	if err != nil {
		return intervals.Set{}, err
	}
	wElse, err := Window(c.Else, env, timed)
	if err != nil {
		return intervals.Set{}, err
	}
	return wIf.Intersect(wThen).Union(wIf.Complement().Intersect(wElse)), nil
}
