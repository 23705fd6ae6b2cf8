// Command perfbench is the repository's benchmark. It drives four workloads
// through the public API from one process, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) as the last line of its output:
//
//	perfbench -workload launcher-sweep -seed 1 -seconds 20 -trace 0
//
// See README.md in this directory for the workloads, the metrics and how to
// run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"launcher-sweep", "table1-sim", "table1-exact", "serve-mix"}

func newSeq(name string) seqWorkload {
	switch name {
	case "launcher-sweep":
		return &launcherSweep{}
	case "table1-sim":
		return &table1Sim{}
	case "table1-exact":
		return &table1Exact{}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: launcher-sweep, table1-sim, table1-exact or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	traced := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	root := fs.String("root", ".", "repository root, holding the committed BENCH_*.json files")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	e := &env{root: *root, seed: *seed, seconds: *seconds, out: os.Stdout}
	e.printf("workload %s, seed %d, %gs, trace %d\n", *name, *seed, *seconds, *traced)
	out, err := measure(e, *name, *traced == 1, filepath.Join(*spans, fmt.Sprintf("%s-seed%d.json", *name, *seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e.printf("%-30s %14.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload, untraced or traced.
func measure(e *env, name string, traced bool, spansPath string) (*outcome, error) {
	if name == "serve-mix" {
		w := &serveMix{}
		if !traced {
			return w.untraced(e)
		}
		tr := newTracer()
		li, err := w.traced(e, tr)
		if err != nil {
			return nil, err
		}
		return finishTrace(e, li, name, spansPath)
	}
	w := newSeq(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if !traced {
		return runSeq(e, w)
	}
	tr := newTracer()
	li, err := traceSeq(e, w, tr)
	if err != nil {
		return nil, err
	}
	return finishTrace(e, li, name, spansPath)
}
