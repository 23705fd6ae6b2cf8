package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// render turns the diagnostics for one fixture into the golden file shape:
// one Render line (plus related notes) per diagnostic.
func renderAll(diags []Diag, file string) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.Render(file))
		b.WriteByte('\n')
	}
	return b.String()
}

// lintFixture lints one fixture the way the CLI would: plain RunSource,
// or RunSourceWithProperty when a .prop sidecar file sits next to the
// .slim file (property-aware fixtures like sl701).
func lintFixture(t *testing.T, path, src string) []Diag {
	t.Helper()
	sidecar := strings.TrimSuffix(path, ".slim") + ".prop"
	pat, err := os.ReadFile(sidecar)
	if os.IsNotExist(err) {
		return RunSource(src)
	}
	if err != nil {
		t.Fatal(err)
	}
	return RunSourceWithProperty(src, strings.TrimSpace(string(pat)))
}

// TestGolden lints every testdata fixture and compares the rendered
// diagnostics — including their exact positions — against the checked-in
// .golden file. Run with -update to regenerate the goldens.
func TestGolden(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.slim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	for _, path := range fixtures {
		name := strings.TrimSuffix(filepath.Base(path), ".slim")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := renderAll(lintFixture(t, path, string(src)), filepath.Base(path))
			golden := strings.TrimSuffix(path, ".slim") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics changed for %s\ngot:\n%swant:\n%s", path, got, want)
			}
		})
	}
}

// TestFixtureCodes checks that every slNNN fixture (or slNNN_variant)
// actually triggers the diagnostic code it is named after, and that the
// clean fixture triggers nothing at all.
func TestFixtureCodes(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "sl*.slim"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range fixtures {
		name := strings.TrimSuffix(filepath.Base(path), ".slim")
		num, _, _ := strings.Cut(strings.TrimPrefix(name, "sl"), "_")
		code := "SL" + num
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			diags := lintFixture(t, path, string(src))
			for _, d := range diags {
				if d.Code == code {
					return
				}
			}
			t.Errorf("fixture %s produced no %s diagnostic; got %v", path, code, diags)
		})
	}

	src, err := os.ReadFile(filepath.Join("testdata", "clean.slim"))
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunSource(string(src)); len(diags) != 0 {
		t.Errorf("clean.slim should lint clean, got:\n%s", renderAll(diags, "clean.slim"))
	}
}
