// Shrinking: once an oracle fails, the harness greedily minimizes the
// model while the same oracle keeps failing, so committed reproducers are
// small enough to debug by hand. Reductions are structural AST edits —
// drop a subcomponent with everything referencing it, drop an extension, a
// connection, a mode, a transition, an effect, clear a guard or an
// invariant — applied largest-first and restarted after every success
// until a fixed point (or the attempt budget) is reached. A candidate only
// survives when Check reports the *same* oracle, and Check resolves the
// goal before any oracle that compiles it: a reduction that deletes a
// variable the goal names fails under the goal oracle, one that introduces
// lint noise fails under lint, and either is rejected. So shrinking cannot
// drift into trivially broken models, whichever oracle it started from.
package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"slimsim/internal/modelgen"
	"slimsim/internal/slim"
)

// maxShrinkAttempts bounds the total number of candidate evaluations.
const maxShrinkAttempts = 400

// Shrink greedily minimizes the discrepancy's model while Check keeps
// reporting the same oracle, and returns the discrepancy re-checked on the
// smallest reproducer found (the input discrepancy if nothing shrinks).
func Shrink(d *Discrepancy) *Discrepancy {
	cur := d
	attempts := 0
	for attempts < maxShrinkAttempts {
		improved := false
		for idx := 0; attempts < maxShrinkAttempts; idx++ {
			src, ok := applyReduction(cur.Source, idx)
			if !ok {
				break
			}
			attempts++
			cand := recheck(cur, src)
			if cand != nil && cand.Oracle == d.Oracle {
				cur = cand
				improved = true
				break // restart the enumeration on the smaller model
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// recheck runs Check on a reduced source under the original property.
func recheck(d *Discrepancy, src string) *Discrepancy {
	parsed, err := slim.Parse(src)
	if err != nil {
		return nil // a reduction must keep the model parseable
	}
	g := &modelgen.Generated{
		Class: d.Class, Seed: d.Seed,
		Model: parsed, Source: src,
		Goal: d.Goal, Bound: d.Bound,
		// A reproducer for a strategy disagreement must keep disagreeing
		// with the original generation-time verdict.
		KnownVerdict: d.KnownVerdict, Satisfied: d.Satisfied,
	}
	return Check(g)
}

// applyReduction applies the idx-th candidate reduction to src and returns
// the reduced printed source; ok is false once idx exceeds the number of
// candidates the current model offers.
func applyReduction(src string, idx int) (string, bool) {
	m, err := slim.Parse(src)
	if err != nil {
		return "", false
	}
	edits := enumerate(m)
	if idx >= len(edits) {
		return "", false
	}
	edits[idx]()
	sweepUnreachable(m)
	return slim.Print(m), true
}

// enumerate lists every applicable single-step reduction of m, largest
// first, in a deterministic order.
func enumerate(m *slim.Model) []func() {
	var edits []func()
	root := m.ComponentImpls[m.Root]

	// Drop one root subcomponent together with the connections and
	// extensions that mention it.
	if root != nil {
		for i := range root.Subcomponents {
			i := i
			edits = append(edits, func() { dropSubcomponent(m, root, i) })
		}
	}
	for _, ext := range extensionIndices(m) {
		k := ext
		edits = append(edits, func() { m.Extensions = append(m.Extensions[:k], m.Extensions[k+1:]...) })
	}
	for _, name := range sortedImplNames(m) {
		impl := m.ComponentImpls[name]
		for j := range impl.Connections {
			impl, j := impl, j
			edits = append(edits, func() {
				impl.Connections = append(impl.Connections[:j], impl.Connections[j+1:]...)
			})
		}
	}
	for _, name := range sortedImplNames(m) {
		impl := m.ComponentImpls[name]
		for j, mode := range impl.Modes {
			if mode.Initial {
				continue
			}
			impl, j := impl, j
			edits = append(edits, func() { dropMode(impl, j) })
		}
	}
	for _, name := range sortedImplNames(m) {
		impl := m.ComponentImpls[name]
		for j := range impl.Transitions {
			impl, j := impl, j
			edits = append(edits, func() {
				impl.Transitions = append(impl.Transitions[:j], impl.Transitions[j+1:]...)
			})
		}
	}
	for _, name := range sortedErrorImplNames(m) {
		ei := m.ErrorImpls[name]
		for j := range ei.Transitions {
			ei, j := ei, j
			edits = append(edits, func() {
				ei.Transitions = append(ei.Transitions[:j], ei.Transitions[j+1:]...)
			})
		}
	}
	for _, name := range sortedImplNames(m) {
		impl := m.ComponentImpls[name]
		for j, mode := range impl.Modes {
			if mode.Invariant == nil {
				continue
			}
			mode, _ := mode, j
			edits = append(edits, func() { mode.Invariant = nil })
		}
		for _, tr := range impl.Transitions {
			tr := tr
			if tr.Guard != nil {
				edits = append(edits, func() { tr.Guard = nil })
			}
			for e := range tr.Effects {
				tr, e := tr, e
				edits = append(edits, func() {
					tr.Effects = append(tr.Effects[:e], tr.Effects[e+1:]...)
				})
			}
		}
	}
	return edits
}

// dropSubcomponent removes root subcomponent i plus every connection and
// extension whose path starts at it.
func dropSubcomponent(m *slim.Model, root *slim.ComponentImpl, i int) {
	name := root.Subcomponents[i].Name
	root.Subcomponents = append(root.Subcomponents[:i], root.Subcomponents[i+1:]...)
	var conns []*slim.Connection
	for _, c := range root.Connections {
		if c.From[0] == name || c.To[0] == name {
			continue
		}
		conns = append(conns, c)
	}
	root.Connections = conns
	var exts []*slim.Extension
	for _, e := range m.Extensions {
		if e.Target[0] == name {
			continue
		}
		exts = append(exts, e)
	}
	m.Extensions = exts
}

// dropMode removes mode j and every transition entering or leaving it.
func dropMode(impl *slim.ComponentImpl, j int) {
	name := impl.Modes[j].Name
	impl.Modes = append(impl.Modes[:j], impl.Modes[j+1:]...)
	var trs []*slim.Transition
	for _, tr := range impl.Transitions {
		if tr.From == name || tr.To == name {
			continue
		}
		trs = append(trs, tr)
	}
	impl.Transitions = trs
}

// sweepUnreachable deletes component and error declarations no longer
// referenced from the root tree, so shrunk models do not drag dead
// declarations along.
func sweepUnreachable(m *slim.Model) {
	live := map[string]bool{}
	var mark func(implName string)
	mark = func(implName string) {
		if live[implName] {
			return
		}
		impl := m.ComponentImpls[implName]
		if impl == nil {
			return
		}
		live[implName] = true
		for _, s := range impl.Subcomponents {
			if s.ImplRef != "" {
				mark(s.ImplRef)
			}
		}
	}
	mark(m.Root)
	for name, impl := range m.ComponentImpls {
		if !live[name] {
			delete(m.ComponentImpls, name)
			delete(m.ComponentTypes, impl.TypeName)
		}
	}
	liveErr := map[string]bool{}
	for _, e := range m.Extensions {
		liveErr[e.ErrorImplRef] = true
	}
	for name, ei := range m.ErrorImpls {
		if !liveErr[name] {
			delete(m.ErrorImpls, name)
			delete(m.ErrorTypes, ei.TypeName)
		}
	}
}

func sortedImplNames(m *slim.Model) []string {
	names := make([]string, 0, len(m.ComponentImpls))
	for name := range m.ComponentImpls {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedErrorImplNames(m *slim.Model) []string {
	names := make([]string, 0, len(m.ErrorImpls))
	for name := range m.ErrorImpls {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func extensionIndices(m *slim.Model) []int {
	out := make([]int, len(m.Extensions))
	for i := range out {
		out[i] = i
	}
	return out
}

// WriteRepro writes the discrepancy's (shrunk) model into the regression
// corpus directory with a self-describing comment header, sets
// d.ReproPath, and returns the path.
func WriteRepro(dir string, d *Discrepancy) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	detail := strings.SplitN(d.Detail, "\n", 2)[0]
	header := fmt.Sprintf(
		"-- difftest reproducer (do not edit; regenerate with: slimfuzz -class %s -seeds %d)\n"+
			"-- oracle: %s\n-- goal: %s\n-- bound: %g\n-- detail: %s\n\n",
		d.Class, d.Seed, d.Oracle, d.Goal, d.Bound, detail)
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.slim", d.Class, d.Seed))
	if err := os.WriteFile(path, []byte(header+d.Source), 0o644); err != nil {
		return "", err
	}
	d.ReproPath = path
	return path, nil
}

// ReadRepro parses the header of a committed reproducer back into the
// goal and bound it was found under.
func ReadRepro(path string) (goal string, bound float64, src string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", 0, "", err
	}
	src = string(data)
	for _, line := range strings.Split(src, "\n") {
		if v, ok := strings.CutPrefix(line, "-- goal: "); ok {
			goal = v
		}
		if v, ok := strings.CutPrefix(line, "-- bound: "); ok {
			fmt.Sscanf(v, "%g", &bound)
		}
	}
	if goal == "" || bound <= 0 {
		return "", 0, "", fmt.Errorf("difftest: %s: missing or malformed reproducer header", path)
	}
	return goal, bound, src, nil
}
