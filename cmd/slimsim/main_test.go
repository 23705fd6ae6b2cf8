package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testModel = `
device Unit
features
  alive: out data port bool default true;
end Unit;

device implementation Unit.Imp
modes
  run: initial mode;
end Unit.Imp;

system S
end S;

system implementation S.Imp
subcomponents
  u: device Unit.Imp;
end S.Imp;

error model Fail
states
  ok: initial state;
  dead: state;
end Fail;

error model implementation Fail.Imp
events
  die: error event occurrence poisson 0.1;
transitions
  ok -[die]-> dead;
end Fail.Imp;

root S.Imp;

extend u with Fail.Imp {
  inject dead: alive := false;
}
`

func writeModel(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.slim")
	if err := os.WriteFile(path, []byte(testModel), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalysis(t *testing.T) {
	path := writeModel(t)
	err := run([]string{
		"-model", path, "-goal", "not u.alive", "-bound", "10",
		"-eps", "0.05", "-workers", "2", "-q",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithPattern(t *testing.T) {
	path := writeModel(t)
	err := run([]string{
		"-model", path, "-prop", "P(<> [0,10] not u.alive)",
		"-eps", "0.05", "-q",
	})
	if err != nil {
		t.Fatalf("run with -prop: %v", err)
	}
}

func TestRunSimulateTraces(t *testing.T) {
	path := writeModel(t)
	err := run([]string{
		"-model", path, "-goal", "not u.alive", "-bound", "10",
		"-simulate", "2",
	})
	if err != nil {
		t.Fatalf("run -simulate: %v", err)
	}
}

func TestRunSweep(t *testing.T) {
	path := writeModel(t)
	report := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{
		"-model", path, "-goal", "not u.alive", "-bounds", "2,5,10",
		"-delta", "0.2", "-eps", "0.05", "-workers", "2", "-q",
		"-report", report,
	})
	if err != nil {
		t.Fatalf("run -bounds: %v", err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("sweep run wrote no report: %v", err)
	}
	if !strings.Contains(string(data), `"sweep"`) {
		t.Errorf("sweep report lacks a sweep section:\n%s", data)
	}
}

// TestRunRelativeSweep: the relative-error rule composes with -bounds,
// each bound stopping by its own rule on the shared stream.
func TestRunRelativeSweep(t *testing.T) {
	path := writeModel(t)
	report := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{
		"-model", path, "-goal", "not u.alive", "-bounds", "5,10",
		"-rel", "0.2", "-workers", "2", "-q", "-report", report,
	})
	if err != nil {
		t.Fatalf("run -rel -bounds: %v", err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("relative sweep wrote no report: %v", err)
	}
	if !strings.Contains(string(data), `"method": "rel"`) || !strings.Contains(string(data), `"sweep"`) {
		t.Errorf("relative sweep report lacks method rel or a sweep section:\n%s", data)
	}
}

// TestRunSweepStatic checks that a statically decided property short-
// circuits a -bounds run too: the verdict is bound-independent, so the
// sweep is answered without sampling.
func TestRunSweepStatic(t *testing.T) {
	path := writeModel(t)
	err := run([]string{
		"-model", path, "-goal", "u.alive", "-bounds", "1,2", "-q",
	})
	if err != nil {
		t.Fatalf("run static -bounds: %v", err)
	}
}

func TestParseBounds(t *testing.T) {
	good, err := parseBounds(" 1, 2.5 ,1e1")
	if err != nil || len(good) != 3 || good[0] != 1 || good[1] != 2.5 || good[2] != 10 {
		t.Errorf("parseBounds: got %v, %v", good, err)
	}
	if b, err := parseBounds(""); b != nil || err != nil {
		t.Errorf("empty -bounds: got %v, %v", b, err)
	}
	for _, bad := range []string{"x", "1,,2", "0,1", "-1,2", "2,1", "3,3", "1,+Inf"} {
		if _, err := parseBounds(bad); err == nil {
			t.Errorf("parseBounds(%q) accepted, want usage error", bad)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cases := [][]string{
		{},                            // nothing
		{"-model", "x.slim"},          // no goal/bound
		{"-goal", "g", "-bound", "1"}, // no model
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d: expected usage error", i)
		}
	}
	// Missing file.
	if err := run([]string{"-model", "/nonexistent.slim", "-goal", "g", "-bound", "1"}); err == nil {
		t.Error("expected file error")
	}
	// Bad strategy reaches the analyzer's validation.
	path := writeModel(t)
	err := run([]string{"-model", path, "-goal", "not u.alive", "-bound", "1", "-strategy", "zzz"})
	if err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("expected strategy error, got %v", err)
	}
	// A malformed -bounds list is a usage error before any sampling.
	err = run([]string{"-model", path, "-goal", "not u.alive", "-bounds", "5,2"})
	if err == nil || !strings.Contains(err.Error(), "-bounds") {
		t.Errorf("expected -bounds usage error, got %v", err)
	}
}
