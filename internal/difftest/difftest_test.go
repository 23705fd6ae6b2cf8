package difftest

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"slimsim"
	"slimsim/internal/modelgen"
)

// corpusDir is where shrunk reproducers of confirmed discrepancies live,
// committed next to the harness; regressionGlob names the ones
// TestRegressionCorpus replays.
const corpusDir = "corpus"

var regressionGlob = filepath.Join(corpusDir, "*.slim")

// newReproDir is where checkSeed writes the reproducer of a fresh failure.
// It lies below corpusDir, so the nightly job uploads it with the corpus,
// but outside regressionGlob, and .gitignore lists it: one failing run
// must not fail every later one. A reproducer whose bug is fixed is moved
// up into corpusDir and committed.
var newReproDir = filepath.Join(corpusDir, "new")

// checkSeed generates (class, seed), runs the oracle hierarchy, and on a
// discrepancy shrinks the model, writes the reproducer into newReproDir
// and fails the test with a report naming seed, oracle and path.
func checkSeed(t *testing.T, class modelgen.Class, seed uint64) {
	t.Helper()
	g, err := modelgen.Generate(class, seed)
	if err != nil {
		t.Fatalf("%s/%d: %v", class, seed, err)
	}
	d := Check(g)
	if d == nil {
		return
	}
	d = Shrink(d)
	if _, err := WriteRepro(newReproDir, d); err != nil {
		t.Logf("writing reproducer: %v", err)
	}
	t.Errorf("%s", d.Error())
}

// readSeeds parses testdata/seeds.txt: one "class seed" pair per line,
// '#' comments allowed.
func readSeeds(t *testing.T) [][2]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][2]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("seeds.txt: malformed line %q", line)
		}
		out = append(out, [2]string{fields[0], fields[1]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFixedSeedCorpus pushes the committed seed corpus — at least 200
// models across all three classes — through the full oracle hierarchy.
// The corpus is fixed and every run is seeded and single-worker, so this
// test is deterministic; it runs in -short mode and is the tier-1 face of
// the differential harness.
func TestFixedSeedCorpus(t *testing.T) {
	seeds := readSeeds(t)
	if len(seeds) < 200 {
		t.Fatalf("committed corpus has %d seeds, want at least 200", len(seeds))
	}
	perClass := map[modelgen.Class][]uint64{}
	for _, s := range seeds {
		seed, err := strconv.ParseUint(s[1], 10, 64)
		if err != nil {
			t.Fatalf("seeds.txt: bad seed %q: %v", s[1], err)
		}
		perClass[modelgen.Class(s[0])] = append(perClass[modelgen.Class(s[0])], seed)
	}
	for _, class := range modelgen.Classes {
		if len(perClass[class]) == 0 {
			t.Fatalf("committed corpus has no %s seeds", class)
		}
	}
	for class, list := range perClass {
		class, list := class, list
		t.Run(string(class), func(t *testing.T) {
			t.Parallel()
			for _, seed := range list {
				checkSeed(t, class, seed)
			}
		})
	}
}

// TestFreshSeeds explores seeds outside the committed corpus, derived from
// the current time, so every full (non -short) run covers new ground. The
// base is logged: a failure report names the exact (class, seed) pair and
// the written reproducer, so any finding is reproducible despite the
// fresh randomness.
func TestFreshSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh-seed exploration is skipped in -short mode")
	}
	base := uint64(time.Now().UnixNano())
	t.Logf("fresh-seed base: %d", base)
	for _, class := range modelgen.Classes {
		class := class
		t.Run(string(class), func(t *testing.T) {
			t.Parallel()
			for i := uint64(0); i < 20; i++ {
				checkSeed(t, class, base+i*7919)
			}
		})
	}
}

// TestNewReprosOutsideRegressionGlob: a reproducer checkSeed writes lands
// below the corpus but is not one TestRegressionCorpus replays, while the
// same file moved up one level is.
func TestNewReprosOutsideRegressionGlob(t *testing.T) {
	for _, c := range []struct {
		dir    string
		replay bool
	}{{newReproDir, false}, {corpusDir, true}} {
		path := filepath.Join(c.dir, "timed-1.slim")
		replay, err := filepath.Match(regressionGlob, path)
		if err != nil {
			t.Fatal(err)
		}
		if replay != c.replay {
			t.Errorf("%s: replayed %v, want %v", path, replay, c.replay)
		}
	}
	if rel, err := filepath.Rel(corpusDir, newReproDir); err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		t.Errorf("%s is not below %s", newReproDir, corpusDir)
	}
}

// TestRegressionCorpus replays every committed reproducer: models that
// once exposed an engine discrepancy must load and simulate under every
// strategy without tripping an internal engine invariant again.
func TestRegressionCorpus(t *testing.T) {
	paths, err := filepath.Glob(regressionGlob)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			goal, bound, src, err := ReadRepro(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := slimsim.LoadModel(src)
			if err != nil {
				if errors.Is(err, slimsim.ErrEngine) {
					t.Fatalf("load: %v", err)
				}
				t.Skipf("reproducer no longer loads (%v); its bug was elsewhere", err)
			}
			for _, strat := range Strategies {
				_, err := m.Simulate(slimsim.Options{
					Goal: goal, Bound: bound, Strategy: strat, Seed: 1,
				}, timedPaths)
				if err != nil && errors.Is(err, slimsim.ErrEngine) {
					t.Fatalf("%s: regression: %v", strat, err)
				}
			}
		})
	}
}

// TestShrinkMinimizes feeds the shrinker a synthetic discrepancy — a
// healthy deterministic model whose recorded verdict is deliberately
// flipped, so the strategy oracle fails on it — and requires the
// reproducer to come back strictly smaller with the same oracle.
func TestShrinkMinimizes(t *testing.T) {
	var g *modelgen.Generated
	for seed := uint64(0); ; seed++ {
		var err error
		g, err = modelgen.Generate(modelgen.Deterministic, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Pick a model with more than one leaf so there is something to
		// drop.
		if len(g.Model.ComponentImpls) > 2 {
			break
		}
	}
	g.Satisfied = !g.Satisfied
	d := Check(g)
	if d == nil {
		t.Fatal("flipped verdict did not fail the strategy oracle")
	}
	if d.Oracle != "strategies" {
		t.Fatalf("flipped verdict failed oracle %s, want strategies", d.Oracle)
	}
	shrunk := Shrink(d)
	if shrunk.Oracle != d.Oracle {
		t.Fatalf("shrinking changed the oracle from %s to %s", d.Oracle, shrunk.Oracle)
	}
	if len(shrunk.Source) >= len(d.Source) {
		t.Fatalf("shrinking did not reduce the model: %d -> %d bytes",
			len(d.Source), len(shrunk.Source))
	}
	if verify := recheck(shrunk, shrunk.Source); verify == nil || verify.Oracle != d.Oracle {
		t.Fatalf("shrunk reproducer does not reproduce the discrepancy")
	}
}

// TestWriteAndReadRepro round-trips a reproducer through the corpus
// format.
func TestWriteAndReadRepro(t *testing.T) {
	g, err := modelgen.Generate(modelgen.Timed, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := &Discrepancy{
		Class: g.Class, Seed: g.Seed, Oracle: "engine",
		Detail: "synthetic\nmultiline", Source: g.Source,
		Goal: g.Goal, Bound: g.Bound,
	}
	dir := t.TempDir()
	path, err := WriteRepro(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if d.ReproPath != path {
		t.Fatalf("ReproPath %q, want %q", d.ReproPath, path)
	}
	if !strings.Contains(d.Error(), path) {
		t.Fatalf("report %q does not name the reproducer path", d.Error())
	}
	goal, bound, src, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if goal != g.Goal || bound != g.Bound {
		t.Fatalf("read back goal=%q bound=%g, want %q/%g", goal, bound, g.Goal, g.Bound)
	}
	if !strings.HasSuffix(src, g.Source) {
		t.Fatal("reproducer body does not end with the model source")
	}
	if _, err := slimsim.LoadModel(src); err != nil {
		t.Fatalf("reproducer with header does not load: %v", err)
	}
}

// TestDiscrepancyReportNamesEverything pins the report format the
// acceptance criteria require: seed, oracle and reproducer path.
func TestDiscrepancyReportNamesEverything(t *testing.T) {
	d := &Discrepancy{
		Class: modelgen.Timed, Seed: 42, Oracle: "engine",
		Detail: "boom", ReproPath: "corpus/timed-42.slim",
	}
	got := d.Error()
	for _, want := range []string{"timed/42", "oracle engine", "boom", "corpus/timed-42.slim"} {
		if !strings.Contains(got, want) {
			t.Fatalf("report %q does not contain %q", got, want)
		}
	}
}

// TestRateUnderflowRejectedAtLoad pins the committed rate-underflow
// reproducer: an occurrence rate scaled below the smallest subnormal must
// be rejected as an ordinary model error (exit code 1), never classified
// as an engine failure or allowed to load and panic later.
func TestRateUnderflowRejectedAtLoad(t *testing.T) {
	_, _, src, err := ReadRepro(filepath.Join(corpusDir, "rate-underflow.slim"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = slimsim.LoadModel(src)
	if err == nil {
		t.Fatal("model with an underflowed occurrence rate loaded successfully")
	}
	if errors.Is(err, slimsim.ErrEngine) {
		t.Fatalf("underflowed rate classified as an engine failure: %v", err)
	}
	if code := slimsim.ExitCode(err); code != 1 {
		t.Fatalf("exit code %d for underflowed rate, want 1 (model error): %v", code, err)
	}
}
