package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// defectiveModel loads and runs, but its connection runs against the port
// directions: two SL202 lint errors.
const defectiveModel = `
system Pair
features
  input: in data port bool default false;
  output: out data port bool default false;
end Pair;

system implementation Pair.Imp
modes
  a: initial mode;
end Pair.Imp;

system Main
end Main;

system implementation Main.Imp
subcomponents
  x: system Pair.Imp;
  y: system Pair.Imp;
connections
  data port x.input -> y.output;
end Main.Imp;

root Main.Imp;
`

// unparsableModel does not load: "prot" is an SL001 syntax error.
const unparsableModel = `
system M
features
  p: in data prot bool;
end M;

root M.Imp;
`

func writeModel(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.slim")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadModelRefusesLintErrors(t *testing.T) {
	path := writeModel(t, defectiveModel)
	var out bytes.Buffer
	m, err := LoadModel(path, false, &out)
	if m != nil || err == nil || !strings.Contains(err.Error(), "model has 2 lint error(s); use -no-lint to override") {
		t.Fatalf("LoadModel = %v, %v; want the lint gate's refusal", m, err)
	}
	if got := strings.Count(out.String(), "error SL202"); got != 2 {
		t.Errorf("gate printed %d SL202 errors, want 2:\n%s", got, out.String())
	}
	if !strings.HasPrefix(out.String(), path+":") {
		t.Errorf("diagnostics do not name the file:\n%s", out.String())
	}
}

func TestLoadModelExplainsUnloadableFile(t *testing.T) {
	path := writeModel(t, unparsableModel)
	var out bytes.Buffer
	if _, err := LoadModel(path, false, &out); err == nil || !strings.Contains(err.Error(), "use -no-lint to override") {
		t.Fatalf("LoadModel error %v, want the lint gate's refusal", err)
	}
	if !strings.Contains(out.String(), "error SL001") {
		t.Errorf("gate output lacks the SL001 explanation:\n%s", out.String())
	}
}

func TestLoadModelNoLintPassesThrough(t *testing.T) {
	var out bytes.Buffer
	m, err := LoadModel(writeModel(t, defectiveModel), true, &out)
	if err != nil || m == nil {
		t.Fatalf("LoadModel(-no-lint) = %v, %v; want the loaded model", m, err)
	}
	if _, err := LoadModel(writeModel(t, unparsableModel), true, &out); err == nil || strings.Contains(err.Error(), "lint") {
		t.Errorf("LoadModel(-no-lint) on an unparsable file: %v, want the load error", err)
	}
	if out.Len() != 0 {
		t.Errorf("-no-lint printed diagnostics:\n%s", out.String())
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	var out bytes.Buffer
	if _, err := LoadModel(filepath.Join(t.TempDir(), "absent.slim"), false, &out); err == nil || strings.Contains(err.Error(), "lint") {
		t.Errorf("LoadModel on a missing file: %v, want the read error", err)
	}
}
