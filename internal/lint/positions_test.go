package lint

import (
	"os"
	"path/filepath"
	"testing"

	"slimsim/internal/slim"
)

// TestExactPositions pins down, for every diagnostic code with a fixture,
// the exact source position the diagnostic must point at. The golden files
// cover the full output; this table makes the position contract explicit.
func TestExactPositions(t *testing.T) {
	cases := []struct {
		fixture   string
		code      string
		severity  Severity
		line, col int
	}{
		{"sl001.slim", "SL001", SevError, 5, 14},   // the bad token itself
		{"sl002.slim", "SL002", SevError, 0, 0},    // no position; rendered as 1:1
		{"sl101.slim", "SL101", SevError, 12, 17},  // the "+" of (flag + 1)
		{"sl102.slim", "SL102", SevError, 10, 3},   // the mode declaration
		{"sl103.slim", "SL103", SevError, 12, 30},  // the ":=" of cnt := 1.5
		{"sl104.slim", "SL104", SevError, 20, 33},  // the ":=" of input := 5
		{"sl105.slim", "SL105", SevError, 12, 14},  // the "*" of (x * x)
		{"sl106.slim", "SL106", SevError, 17, 3},   // the always-overflowing transition
		{"sl106.slim", "SL106", SevError, 18, 3},   // the always-dividing-by-zero guard
		{"sl201.slim", "SL201", SevWarning, 5, 3},  // the port declaration
		{"sl202.slim", "SL202", SevError, 20, 3},   // the connection
		{"sl203.slim", "SL203", SevError, 29, 3},   // the bool->int connection
		{"sl203.slim", "SL203", SevWarning, 30, 3}, // the narrowing connection
		{"sl204.slim", "SL204", SevWarning, 28, 3}, // the second (duplicate) connection
		{"sl205.slim", "SL205", SevError, 27, 3},   // the connection
		{"sl206.slim", "SL206", SevError, 27, 3},   // the connection
		{"sl207.slim", "SL207", SevError, 7, 3},    // the computed port closing the cycle
		{"sl301.slim", "SL301", SevError, 14, 3},   // the subcomponent
		{"sl302.slim", "SL302", SevWarning, 14, 3}, // the unreachable mode
		{"sl303.slim", "SL303", SevError, 10, 3},   // the transition
		{"sl304.slim", "SL304", SevError, 12, 3},   // the transition
		{"sl305.slim", "SL305", SevWarning, 17, 3}, // the dead transition
		{"sl306.slim", "SL306", SevWarning, 16, 3}, // the semantically dead transition
		{"sl307.slim", "SL307", SevWarning, 13, 3}, // the semantically unreachable mode
		{"sl401.slim", "SL401", SevWarning, 8, 3},  // the uninitialized subcomponent
		{"sl501.slim", "SL501", SevWarning, 10, 3}, // the timelocked mode
		{"sl502.slim", "SL502", SevWarning, 11, 3}, // the forced-exit initial mode
		{"sl601.slim", "SL601", SevWarning, 20, 3}, // the unused event
		{"sl602.slim", "SL602", SevError, 11, 1},   // the error model type
		{"sl603.slim", "SL603", SevError, 35, 1},   // the extend clause
		{"sl604.slim", "SL604", SevError, 11, 1},   // the error implementation
		{"sl605.slim", "SL605", SevError, 21, 3},   // the error transition
		{"sl701.slim", "SL701", SevWarning, 0, 0},  // no position; rendered as 1:1
	}
	byFixture := make(map[string][]Diag)
	for _, tc := range cases {
		diags, ok := byFixture[tc.fixture]
		if !ok {
			path := filepath.Join("testdata", tc.fixture)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			diags = lintFixture(t, path, string(src))
			byFixture[tc.fixture] = diags
		}
		found := false
		for _, d := range diags {
			if d.Code == tc.code && d.Severity == tc.severity &&
				d.Pos.Line == tc.line && d.Pos.Col == tc.col {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no %s %s at %d:%d; got %v",
				tc.fixture, tc.severity, tc.code, tc.line, tc.col, byFixture[tc.fixture])
		}
	}
}

// TestRateDiagnostics covers the SL605 variants the parser refuses to even
// produce (non-positive rates, inverted windows) by linting a hand-built
// AST.
func TestRateDiagnostics(t *testing.T) {
	m := &slim.Model{
		ComponentTypes: map[string]*slim.ComponentType{},
		ComponentImpls: map[string]*slim.ComponentImpl{},
		ErrorTypes: map[string]*slim.ErrorType{
			"Fail": {
				Name: "Fail",
				States: []slim.ErrorState{
					{Name: "ok", Initial: true, Pos: slim.Pos{Line: 2, Col: 3}},
					{Name: "down", Pos: slim.Pos{Line: 3, Col: 3}},
				},
				Pos: slim.Pos{Line: 1, Col: 1},
			},
		},
		ErrorImpls: map[string]*slim.ErrorImpl{
			"Fail.Imp": {
				TypeName: "Fail", ImplName: "Imp",
				Events: []*slim.ErrorEvent{
					{Name: "crash", Kind: slim.ErrEventInternal, HasRate: true, Rate: -2,
						Pos: slim.Pos{Line: 6, Col: 3}},
					{Name: "fix", Kind: slim.ErrEventInternal, Pos: slim.Pos{Line: 7, Col: 3}},
				},
				Transitions: []*slim.ErrorTransition{
					{From: "ok", To: "down", Event: "crash", Pos: slim.Pos{Line: 9, Col: 3}},
					{From: "down", To: "ok", Event: "fix", HasAfter: true, Lo: 5, Hi: 1,
						Pos: slim.Pos{Line: 10, Col: 3}},
				},
				Pos: slim.Pos{Line: 5, Col: 1},
			},
		},
	}
	diags := run(m, nil)
	wantMsgs := map[string]bool{
		"error event crash has non-positive occurrence rate -2": false,
		"invalid timing window [5..1]":                          false,
	}
	for _, d := range diags {
		if d.Code != "SL605" {
			continue
		}
		if _, ok := wantMsgs[d.Msg]; ok {
			wantMsgs[d.Msg] = true
		}
	}
	for msg, seen := range wantMsgs {
		if !seen {
			t.Errorf("missing SL605 %q in %v", msg, diags)
		}
	}
}
