package slimsim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"slimsim/internal/casestudy"
)

// lintSources returns the models CompiledModel.Lint is checked on, keyed
// by name: every lint fixture without a property sidecar, every example
// model, both launchers, the sensor filter at N=1..7 and the difftest
// corpus.
func lintSources(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, pat := range []string{"internal/lint/testdata/*.slim", "examples/*/*.slim", "internal/difftest/corpus/*.slim"} {
		files, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if _, err := os.Stat(strings.TrimSuffix(f, ".slim") + ".prop"); err == nil {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = string(data)
		}
	}
	for _, mode := range []casestudy.FaultMode{casestudy.FaultsPermanent, casestudy.FaultsRecoverable} {
		src, err := casestudy.Launcher(casestudy.DefaultLauncher(mode))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("launcher/%d", mode)] = src
	}
	for n := 1; n <= 7; n++ {
		src, err := casestudy.SensorFilter(casestudy.DefaultSensorFilter(n))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("sensorfilter/N=%d", n)] = src
	}
	return out
}

// TestCompiledLintEqualsSourceLint: linting a compiled model on its own
// artifacts reports exactly what linting its source does, with and
// without dead-transition pruning.
func TestCompiledLintEqualsSourceLint(t *testing.T) {
	compared, withDiags := 0, 0
	for name, src := range lintSources(t) {
		want := Lint(src)
		for i, opts := range [][]LoadOption{nil, {WithoutPruning()}} {
			cm, err := Compile(src, opts...)
			if err != nil {
				continue
			}
			if i == 0 {
				compared++
				if len(want) > 0 {
					withDiags++
				}
			}
			if got := cm.Lint(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%d options): compiled lint\n%v\nwant source lint\n%v", name, len(opts), got, want)
			}
		}
	}
	// The fixtures that compile carry warnings and errors; a run that
	// compared only clean models would prove little.
	if compared < 30 || withDiags < 15 {
		t.Errorf("compared %d compiling models, %d with diagnostics; want at least 30 and 15", compared, withDiags)
	}
}

// TestCompiledLintConcurrent calls Lint on one CompiledModel from several
// goroutines at once: the analyzer runs once and every caller sees the
// source's diagnostics.
func TestCompiledLintConcurrent(t *testing.T) {
	data, err := os.ReadFile("internal/lint/testdata/sl305_ranges.slim")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	want := Lint(src)
	if len(want) == 0 {
		t.Fatal("fixture lints clean; the test needs diagnostics to compare")
	}
	cm, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([][]Diagnostic, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = cm.Lint()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("caller %d: %v, want %v", g, got[g], want)
		}
	}
}
