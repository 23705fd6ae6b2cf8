// The CompiledModel/Session split: everything expensive about an analysis
// (parse → instantiate → abstract interpretation → expression compilation)
// is captured in an immutable, content-addressed CompiledModel that many
// concurrent analyses can share, while every run-specific thing (the
// compiled property, resolved configuration, telemetry collector) lives in
// a throwaway Session. The slimserve daemon keys its compiled-model cache
// on CompiledModel.Hash; the CLIs go through the same two types via
// Model.Analyze.
package slimsim

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"slimsim/internal/absint"
	"slimsim/internal/lint"
	"slimsim/internal/model"
	"slimsim/internal/network"
	"slimsim/internal/prop"
	"slimsim/internal/sim"
	"slimsim/internal/slim"
	"slimsim/internal/symmetry"
	"slimsim/internal/telemetry"
)

// CompiledModel is the immutable compile artifact of one SLIM source text:
// the instantiated model, the executable network runtime, the
// abstract-interpretation fixpoint and, on first use, the certified
// replica symmetry of the runtime. It is safe for concurrent use — the
// runtime is read-only after construction and every worker evaluates
// through its own scratch arena — and is identified by a content hash of
// the source and the load options, so equal sources compile to
// interchangeable values.
type CompiledModel struct {
	hash     string
	built    *model.Built
	rt       *network.Runtime
	analysis *absint.Result
	// reduction detects the runtime's symmetry once, on the first
	// CheckCTMC that asks for it; the *Reduction is read-only (nil when
	// no group certifies) and every quotient build makes its own
	// canonicalizer scratch.
	reduction func() *symmetry.Reduction
	// lint runs the static analyzer once, on the first Lint call, over
	// the artifacts above.
	lint func() []Diagnostic
}

// ContentHash returns the cache key Compile assigns to src under opts:
// "sha256:" followed by the hex digest of the source text and the load
// configuration. Equal keys guarantee interchangeable CompiledModels.
func ContentHash(src string, opts ...LoadOption) string {
	var cfg loadConfig
	for _, o := range opts {
		o(&cfg)
	}
	h := sha256.New()
	h.Write([]byte("slimsim-model-v1\x00"))
	if cfg.noPrune {
		h.Write([]byte("noprune\x00"))
	}
	h.Write([]byte(src))
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Compile parses, instantiates and statically analyzes SLIM source text,
// returning the shareable compile artifact. LoadModel is Compile plus the
// Model wrapper.
func Compile(src string, opts ...LoadOption) (*CompiledModel, error) {
	var cfg loadConfig
	for _, o := range opts {
		o(&cfg)
	}
	parsed, err := slim.Parse(src)
	if err != nil {
		return nil, err
	}
	built, err := model.Instantiate(parsed)
	if err != nil {
		return nil, err
	}
	rt, err := network.New(built.Net)
	if err != nil {
		return nil, err
	}
	cm := &CompiledModel{
		hash:     ContentHash(src, opts...),
		built:    built,
		rt:       rt,
		analysis: absint.Analyze(rt),
	}
	if !cfg.noPrune {
		if mask, any := cm.analysis.PruneMask(); any {
			if err := rt.Prune(mask); err != nil {
				return nil, err
			}
		}
	}
	cm.reduction = sync.OnceValue(func() *symmetry.Reduction { return symmetry.Detect(rt) })
	cm.lint = sync.OnceValue(func() []Diagnostic { return lint.Run(built, rt, cm.analysis) })
	return cm, nil
}

// Lint returns the static-analysis diagnostics of the compiled source,
// exactly as Lint(src) reports them, without parsing or building anything
// again: the analyzer runs on this compile's own artifacts, once, on the
// first call. Callers must not modify the returned slice.
func (c *CompiledModel) Lint() []Diagnostic { return c.lint() }

// Hash returns the content hash identifying this compile artifact.
func (c *CompiledModel) Hash() string { return c.hash }

// Model wraps the compile artifact in the user-facing analysis API.
func (c *CompiledModel) Model() *Model { return &Model{CompiledModel: c} }

// Session is one Monte Carlo analysis run bound to a compiled model: the
// property compiled against the model's declarations plus the fully
// resolved run configuration (strategy, accuracy, seed, workers,
// telemetry). Sessions are cheap — creating one performs no sampling — and
// single-use; any number of sessions may run concurrently against the same
// CompiledModel.
type Session struct {
	model *Model
	prop  prop.Property
	cfg   sim.AnalysisConfig
	text  string
}

// NewSession compiles the property described by opts and resolves the run
// configuration, reporting option errors before any sampling starts.
func (m *Model) NewSession(opts Options) (*Session, error) {
	p, err := m.CompileProperty(opts)
	if err != nil {
		return nil, err
	}
	cfg, err := m.analysisConfig(opts, p)
	if err != nil {
		return nil, err
	}
	if opts.Telemetry != nil {
		opts.Telemetry.SetRun(telemetry.RunInfo{Property: propertyText(opts)})
	}
	return &Session{model: m, prop: p, cfg: cfg, text: propertyText(opts)}, nil
}

// PropertyText renders the session's property in the pattern notation used
// by reports and cache keys.
func (s *Session) PropertyText() string { return s.text }

// Run executes the session's Monte Carlo analysis.
func (s *Session) Run() (Report, error) {
	return sim.Analyze(s.model.rt, s.cfg)
}
