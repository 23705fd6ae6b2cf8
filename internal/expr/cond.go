package expr

import "fmt"

// Cond is a conditional expression `if If then Then else Else`. It is used
// chiefly to compile mode-dependent data-port connections: an input port's
// value selects between the connected source and a default depending on the
// active modes.
type Cond struct {
	If, Then, Else Expr
}

// Ite returns the conditional node.
func Ite(ifE, thenE, elseE Expr) *Cond { return &Cond{If: ifE, Then: thenE, Else: elseE} }

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
