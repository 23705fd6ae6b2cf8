// Package lint is a multi-pass static analyzer for SLIM models. It runs a
// registry of independent analyzer passes over the parsed AST and — when
// instantiation succeeds — over the lowered model, and reports positioned,
// coded diagnostics (sorted and deduplicated) instead of the first runtime
// error the simulator would otherwise crash with.
//
// Passes fall into two phases. AST passes see only the parsed slim.Model
// and therefore work even on models that cannot be instantiated; they cover
// name-level well-formedness (connections, modes, error models). Built
// passes see the instantiated model.Built together with the network
// runtime and abstract-interpretation fixpoint compiled from it, and cover
// everything that needs resolved variables: whole-model type checking,
// unconnected ports, dead transitions, timelock heuristics and semantic
// reachability. The runtime and the fixpoint are built once per run and
// shared by every pass; Run takes them from a compile that already built
// them.
package lint

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"slimsim/internal/absint"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/slim"
)

// Severity classifies a diagnostic.
type Severity int

// Severities. Errors make the model unfit for simulation; warnings flag
// likely modeling mistakes that the simulator tolerates.
const (
	SevWarning Severity = iota + 1
	SevError
)

// String renders the severity the way compilers do.
func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return "invalid"
	}
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the string form produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "warning":
		*s = SevWarning
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Related is a secondary position attached to a diagnostic (the other end
// of a duplicate connection, the declaration a read refers to, ...).
type Related struct {
	Pos slim.Pos `json:"pos"`
	Msg string   `json:"msg"`
}

// Diag is one diagnostic finding.
type Diag struct {
	// Code is the stable diagnostic code (e.g. "SL101"); see docs/LINT.md
	// for the full table.
	Code string `json:"code"`
	// Severity is the finding's severity.
	Severity Severity `json:"severity"`
	// Pos is the primary source position.
	Pos slim.Pos `json:"pos"`
	// Msg describes the finding.
	Msg string `json:"msg"`
	// Related lists secondary positions, if any.
	Related []Related `json:"related,omitempty"`
}

// Render formats the diagnostic in the conventional
// "file:line:col: severity CODE: message" shape, with related positions on
// indented note lines.
func (d Diag) Render(file string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s: %s %s: %s", file, renderPos(d.Pos), d.Severity, d.Code, d.Msg)
	for _, r := range d.Related {
		fmt.Fprintf(&b, "\n\t%s:%s: note: %s", file, renderPos(r.Pos), r.Msg)
	}
	return b.String()
}

// renderPos renders a position, normalizing the unknown position to 1:1 so
// every diagnostic stays machine-parseable.
func renderPos(p slim.Pos) string {
	if p.Line == 0 {
		p = slim.Pos{Line: 1, Col: 1}
	}
	return p.String()
}

// suppression marks one (code, position) pair for removal in finish.
type suppression struct {
	code string
	pos  slim.Pos
}

// Reporter collects diagnostics during a run.
type Reporter struct {
	diags      []Diag
	suppressed []suppression
}

// Report adds a diagnostic.
func (r *Reporter) Report(d Diag) { r.diags = append(r.diags, d) }

// Errorf reports an error-severity diagnostic.
func (r *Reporter) Errorf(code string, pos slim.Pos, format string, args ...any) {
	r.Report(Diag{Code: code, Severity: SevError, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Warnf reports a warning-severity diagnostic.
func (r *Reporter) Warnf(code string, pos slim.Pos, format string, args ...any) {
	r.Report(Diag{Code: code, Severity: SevWarning, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Suppress drops any diagnostic with the given code at the given position
// from the final output, regardless of which pass reported it (or will
// report it). Passes use it to subsume strictly weaker findings: when the
// abstract interpreter proves a mode semantically unreachable (SL307) or a
// transition dead at every reachable valuation (SL306), the purely
// syntactic SL302/SL305 findings at the same position carry no extra
// information.
func (r *Reporter) Suppress(code string, pos slim.Pos) {
	r.suppressed = append(r.suppressed, suppression{code, pos})
}

// hasErrors reports whether any error-severity diagnostic was collected.
func (r *Reporter) hasErrors() bool {
	for _, d := range r.diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// finish applies suppressions, sorts the collected diagnostics by
// position, then code, then message, and drops exact duplicates.
func (r *Reporter) finish() []Diag {
	if len(r.suppressed) > 0 {
		kept := r.diags[:0]
		for _, d := range r.diags {
			drop := false
			for _, s := range r.suppressed {
				if s.code == d.Code && s.pos == d.Pos {
					drop = true
					break
				}
			}
			if !drop {
				kept = append(kept, d)
			}
		}
		r.diags = kept
	}
	sort.SliceStable(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	out := r.diags[:0]
	for i, d := range r.diags {
		if i > 0 {
			prev := out[len(out)-1]
			if prev.Code == d.Code && prev.Pos == d.Pos && prev.Msg == d.Msg {
				continue
			}
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Pass is one analyzer. AST runs on every parse-clean model; Built runs
// only when instantiation succeeds.
type Pass struct {
	// Name identifies the pass.
	Name string
	// Doc is a one-line description.
	Doc string
	// AST analyzes the parsed model.
	AST func(m *slim.Model, r *Reporter)
	// Built analyzes the instantiated model. rt is the network runtime
	// of b.Net, nil when the network does not build (the typecheck pass
	// reports why); res is the abstract-interpretation fixpoint of rt,
	// nil exactly when rt is.
	Built func(b *model.Built, rt *network.Runtime, res *absint.Result, r *Reporter)
}

// Passes is the registry of analyzer passes, in execution order.
var Passes = []Pass{
	{
		Name:  "connections",
		Doc:   "port/connection well-formedness: endpoints, directions, data types, duplicates",
		AST:   checkConnectionsAST,
		Built: checkPortsBuilt,
	},
	{
		Name: "dataflow",
		Doc:  "instantaneous data-flow cycles through data connections and computed ports",
		AST:  checkDataFlowAST,
	},
	{
		Name: "modes",
		Doc:  "mode-graph sanity: dangling in-modes refs, unknown modes, triggers, reachability",
		AST:  checkModesAST,
	},
	{
		Name: "init",
		Doc:  "initialization: data elements read but never assigned and without a default",
		AST:  checkInitAST,
	},
	{
		Name: "errormodel",
		Doc:  "error-model consistency: states, events, rates, extensions and injections",
		AST:  checkErrorModelsAST,
	},
	{
		Name:  "typecheck",
		Doc:   "whole-model type checking of guards, invariants, effects, defaults and flows",
		Built: checkTypesBuilt,
	},
	{
		Name:  "deadcode",
		Doc:   "dead transitions: guards unsatisfiable under declared variable ranges (Booleans as 0/1, bounds through / and mod)",
		Built: checkDeadTransitionsBuilt,
	},
	{
		Name:  "timelock",
		Doc:   "timelock heuristics: invariants that force an exit no transition provides",
		Built: checkTimelocksBuilt,
	},
	{
		Name:  "absint",
		Doc:   "abstract interpretation: semantic unreachability, dead transitions, guaranteed overflow and division by zero",
		Built: checkAbsintBuilt,
	},
}

// modelErrPos extracts the "L:C" prefix the model package embeds in its
// error strings ("model: 3:7: ...").
var modelErrPos = regexp.MustCompile(`^model: (\d+):(\d+): (.*)$`)

// Run lints an instantiated model through the artifacts its compile
// already built: the AST passes run on b.Source() and the built passes on
// b, rt and res. rt must be network.New(b.Net) (nil when that failed) and
// res absint.Analyze(rt) taken before any pruning of rt (nil when rt is);
// pruning itself does not change the findings. On such artifacts Run
// returns exactly what RunSource returns for the source b was built from.
func Run(b *model.Built, rt *network.Runtime, res *absint.Result) []Diag {
	r := &Reporter{}
	runAST(b.Source(), r)
	runBuilt(b, rt, res, r)
	return r.finish()
}

// runAST runs every AST pass on m.
func runAST(m *slim.Model, r *Reporter) {
	for _, p := range Passes {
		if p.AST != nil {
			p.AST(m, r)
		}
	}
}

// runBuilt runs every built pass on the instantiated model's artifacts.
func runBuilt(b *model.Built, rt *network.Runtime, res *absint.Result, r *Reporter) {
	for _, p := range Passes {
		if p.Built != nil {
			p.Built(b, rt, res, r)
		}
	}
}

// run is the shared driver behind RunSource and RunSourceWithProperty: all
// AST passes, then — if the model instantiates — one network runtime and
// one fixpoint shared by all built passes and, when non-nil, extra.
// Instantiation failures surface as an SL002 diagnostic unless an AST pass
// already reported an error for the same model (the AST finding is the
// actionable one).
func run(m *slim.Model, extra func(b *model.Built, res *absint.Result, r *Reporter)) []Diag {
	r := &Reporter{}
	runAST(m, r)
	b, err := model.Instantiate(m)
	if err != nil {
		if !r.hasErrors() {
			pos := slim.Pos{}
			msg := err.Error()
			if sub := modelErrPos.FindStringSubmatch(msg); sub != nil {
				fmt.Sscanf(sub[1], "%d", &pos.Line)
				fmt.Sscanf(sub[2], "%d", &pos.Col)
				msg = "model: " + sub[3]
			}
			r.Errorf("SL002", pos, "model does not instantiate: %s", msg)
		}
		return r.finish()
	}
	var res *absint.Result
	rt, err := network.New(b.Net)
	if err == nil {
		res = absint.Analyze(rt)
	}
	runBuilt(b, rt, res, r)
	if extra != nil {
		extra(b, res, r)
	}
	return r.finish()
}

// RunSourceWithProperty lints src like RunSource and additionally checks
// the given property pattern (e.g. "P(<> [0,100] sys.fail)") against the
// abstract-interpretation fixpoint, reporting SL701 when the property is
// ill-formed for the model or its verdict does not depend on the model's
// stochastic behavior at all (a statically unreachable goal, or an
// invariance that no reachable valuation can violate).
func RunSourceWithProperty(src, pattern string) []Diag {
	return runSource(src, func(b *model.Built, res *absint.Result, r *Reporter) {
		checkPropertyVacuity(b, res, pattern, r)
	})
}

// RunSource lints SLIM source text. Parse failures become a single SL001
// diagnostic.
func RunSource(src string) []Diag { return runSource(src, nil) }

// runSource parses src and runs the shared driver on it.
func runSource(src string, extra func(b *model.Built, res *absint.Result, r *Reporter)) []Diag {
	m, err := slim.Parse(src)
	if err != nil {
		pos, _ := slim.PosOf(err)
		msg := strings.TrimPrefix(err.Error(), "slim: "+pos.String()+": ")
		msg = strings.TrimPrefix(msg, "slim: ")
		return []Diag{{Code: "SL001", Severity: SevError, Pos: pos, Msg: msg}}
	}
	return run(m, extra)
}

// Errors filters the error-severity subset of diags.
func Errors(diags []Diag) []Diag {
	var out []Diag
	for _, d := range diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether diags contains an error-severity diagnostic.
func HasErrors(diags []Diag) bool { return len(Errors(diags)) > 0 }
