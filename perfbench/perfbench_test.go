package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{100, 90}, {1000, 99}, {200, 95}, {20, 50}, {19, 47}, {10, 0}, {0, 0},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 0 {
			if beyond := c.n - rank(float64(p), c.n); beyond < tailSamples {
				t.Errorf("n=%d: p%d leaves %d samples beyond it", c.n, p, beyond)
			}
			if beyond := c.n - rank(float64(p+1), c.n); p < 99 && beyond >= tailSamples {
				t.Errorf("n=%d: p%d also leaves %d samples beyond it", c.n, p+1, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var s []float64
	for i := 10; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if q1, q3 := quartiles(s); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %g, %g; want 1.5, 12", q1, q3)
	}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "bench.query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "parallel.run", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "sim.sample_path", Start: 20, End: 30},
	}
	want := []int64{70, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two workers' spans overlap each other; a third child runs past the
	// parent's end and is clipped to it.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "parallel.run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Lane: 1, Name: "parallel.worker", Start: 10, End: 50},
		{ID: 2, Parent: 0, Lane: 2, Name: "parallel.worker", Start: 30, End: 70},
		{ID: 3, Parent: 0, Lane: 1, Name: "parallel.worker", Start: 90, End: 120},
		{ID: 4, Parent: 1, Lane: 1, Name: "sim.sample_path", Start: 10, End: 20},
		{ID: 5, Parent: 1, Lane: 1, Name: "sim.sample_path", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	if got[0] != 30 {
		t.Errorf("parent self %d, want 30 (covered [10,70] and [90,100])", got[0])
	}
	if got[1] != 25 {
		t.Errorf("worker self %d, want 25 (covered [10,25])", got[1])
	}
	if got[2] != 40 {
		t.Errorf("childless span self %d, want its duration 40", got[2])
	}
}

func TestLayerSharesLaneCheck(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Lane: 0, Name: "parallel.run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Lane: 1, Name: "parallel.worker", Start: 0, End: 100},
		{ID: 2, Parent: 1, Lane: 1, Name: "sim.sample_path", Start: 0, End: 60},
		{ID: 3, Parent: 0, Lane: 2, Name: "parallel.worker", Start: 0, End: 100},
	}
	by, err := layerShares(spans, 100)
	if err != nil {
		t.Fatal(err)
	}
	if by["sim"] != 60 || by["parallel"] != 140 {
		t.Errorf("layer self times %v, want sim 60 and parallel 140", by)
	}
	// The same lane covering an instant twice is a bookkeeping error.
	spans = append(spans, Span{ID: 4, Parent: -1, Lane: 2, Name: "bench.query", Start: 0, End: 50})
	if _, err := layerShares(spans, 100); err == nil {
		t.Error("lane 2's self times sum beyond the wall time, but no error was reported")
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the program in step: every
// per-layer metric it declares is one the traced run reports, in order.
func TestBenchmarkManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(m.PerLayer), len(perLayer))
	}
	for i, pl := range perLayer {
		if m.PerLayer[i].Name != pl.name || m.PerLayer[i].Unit != pl.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
				i, m.PerLayer[i].Name, m.PerLayer[i].Unit, pl.name, pl.unit)
		}
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the program %v", names, workloadNames)
	}
	var e2e []string
	for _, e := range m.EndToEnd {
		e2e = append(e2e, e.Name)
	}
	sort.Strings(e2e)
	want := []string{"latency_ms.p50", "latency_ms.p90", "peak_rss_mb", "queries_per_s", "setup_s"}
	if !slices.Equal(e2e, want) {
		t.Errorf("BENCHMARK.json end-to-end metrics %v, the program reports %v", e2e, want)
	}
}

// TestSmoke runs every workload briefly, untraced and traced: every answer
// must check out, and every declared metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds per workload")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e := &env{root: "..", seed: 2, seconds: 0.2, out: io.Discard}
			out, err := measure(e, name, traced, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d queries failed", name, traced, out.failed, out.attempted)
			}
			want := len(perLayer)
			if !traced {
				want = 5
			}
			if len(out.metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(out.metrics), want)
			}
		}
	}
}
