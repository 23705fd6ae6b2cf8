// Package cli holds what the command-line analyzers share: loading a model
// file behind the lint gate.
package cli

import (
	"fmt"
	"io"

	"slimsim"
)

// LoadModel loads the model file and, unless noLint, refuses it when the
// loaded model has error-severity diagnostics, which it writes to w. A file
// that does not load is linted only for the refusal's text.
func LoadModel(path string, noLint bool, w io.Writer) (*slimsim.Model, error) {
	m, err := slimsim.LoadModelFile(path)
	if noLint {
		return m, err
	}
	if err != nil {
		if diags, lerr := slimsim.LintFile(path); lerr == nil {
			if gerr := lintGate(path, diags, w); gerr != nil {
				return nil, gerr
			}
		}
		return nil, err
	}
	if err := lintGate(path, m.Lint(), w); err != nil {
		return nil, err
	}
	return m, nil
}

// lintGate fails when diags has error-severity diagnostics, writing them
// to w.
func lintGate(path string, diags []slimsim.Diagnostic, w io.Writer) error {
	errs := 0
	for _, d := range diags {
		if d.Severity == slimsim.SeverityError {
			fmt.Fprintln(w, d.Render(path))
			errs++
		}
	}
	if errs > 0 {
		return fmt.Errorf("model has %d lint error(s); use -no-lint to override", errs)
	}
	return nil
}
