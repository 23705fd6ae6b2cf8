package ctmc_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"slimsim/internal/casestudy"
	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/model"
	"slimsim/internal/modelgen"
	"slimsim/internal/network"
	"slimsim/internal/slim"
	"slimsim/internal/symmetry"
)

var update = flag.Bool("update", false, "rewrite testdata/build_stats.golden from the current builder")

// corpusMaxStates matches the differential harness's exploration cap.
const corpusMaxStates = 1 << 18

// buildCase is one reference exploration: a model and goal, built
// explicitly or, when red is set, over the symmetry quotient.
type buildCase struct {
	name string
	rt   *network.Runtime
	goal expr.Expr
	red  *symmetry.Reduction
}

// loadSource instantiates SLIM source into an unpruned runtime plus
// compiled goal, as the differential harness does.
func loadSource(t *testing.T, src, goalSrc string) (*network.Runtime, expr.Expr) {
	t.Helper()
	parsed, err := slim.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	built, err := model.Instantiate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := network.New(built.Net)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := built.CompileExpr(goalSrc)
	if err != nil {
		t.Fatal(err)
	}
	return rt, goal
}

// buildCases returns the reference explorations: the sensor filter at
// N=2..5, explicit and quotient, and every markovian, symmetric (explicit
// and quotient) and rareevent seed of the committed differential corpus.
func buildCases(t *testing.T) []buildCase {
	t.Helper()
	var cases []buildCase
	withQuotient := func(name string, rt *network.Runtime, goal expr.Expr) {
		cases = append(cases, buildCase{name: name + "/explicit", rt: rt, goal: goal})
		red := symmetry.Detect(rt)
		if red == nil {
			t.Fatalf("%s: no symmetry detected", name)
		}
		cases = append(cases, buildCase{name: name + "/quotient", rt: rt, goal: goal, red: red})
	}
	for n := 2; n <= 5; n++ {
		src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
		if err != nil {
			t.Fatal(err)
		}
		rt, goal := loadSource(t, src, casestudy.SensorFilterGoal)
		withQuotient(fmt.Sprintf("sensorfilter-%d", n), rt, goal)
	}
	f, err := os.Open(filepath.Join("..", "difftest", "testdata", "seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		class := modelgen.Class(fields[0])
		if class != modelgen.Markovian && class != modelgen.Symmetric && class != modelgen.RareEvent {
			continue
		}
		seed, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("seeds.txt: bad seed %q: %v", fields[1], err)
		}
		g, err := modelgen.Generate(class, seed)
		if err != nil {
			t.Fatalf("%s %d: %v", class, seed, err)
		}
		rt, goal := loadSource(t, g.Source, g.Goal)
		name := fmt.Sprintf("%s-%d", class, seed)
		if class == modelgen.Symmetric {
			withQuotient(name, rt, goal)
		} else {
			cases = append(cases, buildCase{name: name + "/explicit", rt: rt, goal: goal})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cases
}

// build runs the case's exploration through the public entry points.
func (c *buildCase) build() (*ctmc.BuildResult, error) {
	if c.red != nil {
		return symmetry.BuildQuotient(c.rt, c.red, c.goal, corpusMaxStates)
	}
	return ctmc.Build(c.rt, c.goal, corpusMaxStates)
}

// chainDigest hashes a chain's full content — every edge target and rate
// bit pattern, the initial distribution and the goal labeling — so two
// chains share a digest only if they are bit-identical, state numbering
// included.
func chainDigest(c *ctmc.CTMC) string {
	h := sha256.New()
	var buf []byte
	for s, edges := range c.Edges {
		buf = binary.AppendUvarint(buf[:0], uint64(len(edges)))
		for _, e := range edges {
			buf = binary.AppendUvarint(buf, uint64(e.To))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rate))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Initial[s]))
		if c.Goal[s] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestBuildStatsGolden pins, for every reference exploration, the
// explored and vanishing counts, the tangible-state count and a digest of
// the whole chain against testdata/build_stats.golden. Any change to the
// builder that alters which states are explored, how they are numbered or
// a single rate bit shows up here. Regenerate with -update only for an
// intended change of the chains or when the difftest corpus gains seeds.
func TestBuildStatsGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range buildCases(t) {
		res, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s explored=%d vanishing=%d states=%d chain=%s\n",
			c.name, res.Explored, res.Vanishing, res.Chain.NumStates(), chainDigest(res.Chain))
	}
	path := filepath.Join("testdata", "build_stats.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d explorations, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
