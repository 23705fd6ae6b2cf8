// Package serve is the long-running analysis service behind the slimserve
// daemon. It amortizes everything expensive about an analysis across
// requests: compiled models (parse → instantiate → abstract interpretation
// → expression compilation, then lint on the same artifacts) are cached by
// content hash and shared between concurrent runs — they are immutable,
// only per-worker scratch arenas mutate — and finished reports are memoized
// by the full request key, so repeating a request returns byte-identical
// bytes without sampling a single path.
//
// The HTTP surface (documented in docs/SERVE.md):
//
//	POST /v1/analyze        submit a request and wait for the report
//	POST /v1/jobs           submit asynchronously, returns the job id
//	GET  /v1/jobs/{id}        poll a job
//	GET  /v1/jobs/{id}/events stream progress snapshots as SSE
//	GET  /healthz           liveness and queue depth
//	GET  /debug/telemetry   cache/queue counters as JSON
//	GET  /debug/pprof/...   pprof; /debug/vars for expvar
//
// Jobs flow through a bounded queue drained by a fixed pool of runner
// goroutines; submissions beyond the queue bound are rejected with 503
// rather than accepted into an unbounded backlog.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"slimsim"
	"slimsim/internal/stats"
	"slimsim/internal/strategy"
	"slimsim/internal/telemetry"
)

// Config sizes the server. Zero fields take the defaults given below.
type Config struct {
	// ModelCache bounds the compiled-model LRU (default 32 models).
	ModelCache int
	// ResultCache bounds the memoized-report LRU (default 256 reports).
	ResultCache int
	// Queue bounds the number of accepted-but-unfinished jobs (default
	// 64); submissions beyond it are rejected with 503.
	Queue int
	// Jobs is the number of concurrent analysis runners (default 2).
	// Each runner executes one job at a time; a job's own sampling
	// parallelism comes from its workers parameter.
	Jobs int
	// Timeout bounds how long the synchronous /v1/analyze endpoint waits
	// for a result (default 60s). The job keeps running after a 504 and
	// can be picked up via /v1/jobs/{id}.
	Timeout time.Duration
	// MaxWorkers caps the per-request sampling workers (default 16).
	MaxWorkers int
}

func (c Config) withDefaults() Config {
	if c.ModelCache == 0 {
		c.ModelCache = 32
	}
	if c.ResultCache == 0 {
		c.ResultCache = 256
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.Jobs == 0 {
		c.Jobs = 2
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 16
	}
	return c
}

// Request is the JSON body of an analysis submission. Model carries the
// SLIM source text; the remaining fields mirror the slimsim CLI flags and
// slimsim.Options.
type Request struct {
	// Model is the SLIM source text (not a path — the daemon sees only
	// what the client sends). Required.
	Model string `json:"model"`
	// Pattern is the full property, e.g. "P(<> [0,3600] failure)";
	// it overrides Kind/Goal/Constraint/Bound.
	Pattern string `json:"pattern,omitempty"`
	// Kind, Goal, Constraint and Bound spell the property out instead:
	// kind reach (default), always or until.
	Kind       string  `json:"kind,omitempty"`
	Goal       string  `json:"goal,omitempty"`
	Constraint string  `json:"constraint,omitempty"`
	Bound      float64 `json:"bound,omitempty"`
	// Strategy, Delta, Epsilon, Method, RelErr, Workers, Seed, OnLock and
	// MaxSteps are the run knobs, defaulted exactly like the CLI
	// (progressive, 0.05, 0.01, chernoff, 0, 1, 1, violate, engine
	// default).
	Strategy string  `json:"strategy,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Method   string  `json:"method,omitempty"`
	RelErr   float64 `json:"relErr,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	OnLock   string  `json:"onLock,omitempty"`
	MaxSteps int     `json:"maxSteps,omitempty"`
	// NoLint skips the static-analysis gate that rejects defective
	// models before compilation.
	NoLint bool `json:"noLint,omitempty"`
}

// normalize applies the CLI defaults and validates every knob, so that the
// memoization key is canonical (a request spelled with explicit defaults
// hits the same cell as one relying on them) and bad parameters are
// rejected at submission time, before a queue slot is consumed.
func (r *Request) normalize(maxWorkers int) error {
	if strings.TrimSpace(r.Model) == "" {
		return fmt.Errorf("model source is required")
	}
	if r.Pattern == "" && r.Goal == "" {
		return fmt.Errorf("either pattern or goal is required")
	}
	if r.Kind == "" {
		r.Kind = string(slimsim.Reachability)
	}
	switch slimsim.PropertyKind(r.Kind) {
	case slimsim.Reachability, slimsim.Invariance, slimsim.Until:
	default:
		return fmt.Errorf("unknown property kind %q (want reach, always or until)", r.Kind)
	}
	if r.Pattern == "" && !(r.Bound > 0 && !math.IsInf(r.Bound, 0)) {
		return fmt.Errorf("bound must be positive and finite, got %g", r.Bound)
	}
	if r.Strategy == "" {
		r.Strategy = "progressive"
	}
	if _, err := strategy.ByName(r.Strategy); err != nil {
		return err
	}
	if r.Delta == 0 {
		r.Delta = 0.05
	}
	if r.Epsilon == 0 {
		r.Epsilon = 0.01
	}
	if !(r.Delta > 0 && r.Delta < 1) {
		return fmt.Errorf("delta must lie in (0,1), got %g", r.Delta)
	}
	if !(r.Epsilon > 0 && r.Epsilon < 1) {
		return fmt.Errorf("epsilon must lie in (0,1), got %g", r.Epsilon)
	}
	if r.RelErr != 0 && !(r.RelErr > 0 && r.RelErr < 1) {
		return fmt.Errorf("relErr must lie in (0,1) or be 0, got %g", r.RelErr)
	}
	if r.Method == "" {
		r.Method = "chernoff"
	}
	method, err := stats.ParseMethod(r.Method)
	if err != nil {
		return err
	}
	r.Method = method.String()
	// Reject unplannable Chernoff budgets at the door: ChernoffBound caps
	// the plan at stats.MaxPlannedSamples, and a request past the cap
	// would otherwise occupy a runner just to fail.
	if method == stats.MethodChernoff && r.RelErr == 0 {
		if _, err := stats.ChernoffBound(stats.Params{Delta: r.Delta, Epsilon: r.Epsilon}); err != nil {
			return err
		}
	}
	if r.Workers == 0 {
		r.Workers = 1
	}
	if r.Workers < 1 || r.Workers > maxWorkers {
		return fmt.Errorf("workers must lie in [1,%d], got %d", maxWorkers, r.Workers)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.OnLock == "" {
		r.OnLock = "violate"
	}
	if r.OnLock != "violate" && r.OnLock != "error" {
		return fmt.Errorf("onLock must be violate or error, got %q", r.OnLock)
	}
	if r.MaxSteps < 0 {
		return fmt.Errorf("maxSteps must be non-negative, got %d", r.MaxSteps)
	}
	return nil
}

// resultKey is the memoization key: the model's content hash plus every
// normalized run knob that can change the report. Two requests with equal
// keys produce byte-identical reports (the estimate is a pure function of
// model, property, seed and worker count — see docs/OBSERVABILITY.md), so
// the memo can return the stored bytes of the first run.
func (r *Request) resultKey(modelHash string) string {
	return fmt.Sprintf("%s|%q|%q|%q|%q|%g|%q|%g|%g|%q|%g|%d|%d|%q|%d",
		modelHash, r.Pattern, r.Kind, r.Goal, r.Constraint, r.Bound,
		r.Strategy, r.Delta, r.Epsilon, r.Method, r.RelErr, r.Workers,
		r.Seed, r.OnLock, r.MaxSteps)
}

// options maps a normalized request onto the library options.
func (r *Request) options(tel *slimsim.Telemetry) slimsim.Options {
	return slimsim.Options{
		Telemetry:  tel,
		Pattern:    r.Pattern,
		Kind:       slimsim.PropertyKind(r.Kind),
		Goal:       r.Goal,
		Constraint: r.Constraint,
		Bound:      r.Bound,
		Strategy:   r.Strategy,
		Delta:      r.Delta,
		Epsilon:    r.Epsilon,
		Method:     r.Method,
		RelErr:     r.RelErr,
		Workers:    r.Workers,
		Seed:       r.Seed,
		OnLock:     r.OnLock,
		MaxSteps:   r.MaxSteps,
	}
}

// Response is the JSON result of a finished analysis.
type Response struct {
	// JobID identifies the run that produced (or memoized) the report.
	JobID string `json:"jobId"`
	// ModelHash is the compiled model's content hash — the compiled-model
	// cache key.
	ModelHash string `json:"modelHash"`
	// Property renders the analyzed property in pattern notation.
	Property string `json:"property"`
	// CompiledCacheHit reports that compilation was skipped because the
	// model was already in the compiled-model cache; ResultCacheHit that
	// sampling was skipped too and Report carries the memoized bytes.
	CompiledCacheHit bool `json:"compiledCacheHit"`
	ResultCacheHit   bool `json:"resultCacheHit"`
	// Report is the schema-v1 run report (docs/OBSERVABILITY.md).
	Report json.RawMessage `json:"report"`
}

// memoResult is one result-cache value: the stored report bytes plus the
// property text for the response envelope.
type memoResult struct {
	property string
	report   json.RawMessage
}

// JobStatus is the JSON view of a job, returned by GET /v1/jobs/{id} and
// as the final SSE event.
type JobStatus struct {
	ID string `json:"id"`
	// State is queued, running, done or error.
	State string `json:"state"`
	// Error carries the failure message for state error; StatusCode the
	// HTTP status the synchronous endpoint would have returned.
	Error      string `json:"error,omitempty"`
	StatusCode int    `json:"statusCode,omitempty"`
	// Response is set for state done.
	Response *Response `json:"response,omitempty"`
	// Progress is the telemetry snapshot of a running job.
	Progress *telemetry.Snapshot `json:"progress,omitempty"`
}

// job is one accepted analysis request.
type job struct {
	id  string
	req Request
	tel *slimsim.Telemetry

	mu     sync.Mutex
	state  string
	resp   *Response
	errMsg string
	status int
	done   chan struct{}
}

func (j *job) setState(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
}

func (j *job) finish(resp *Response) {
	j.mu.Lock()
	j.state = "done"
	j.resp = resp
	j.mu.Unlock()
}

func (j *job) fail(status int, err error) {
	j.mu.Lock()
	j.state = "error"
	j.status = status
	j.errMsg = err.Error()
	j.mu.Unlock()
}

// Status returns the job's JSON view; running jobs carry a live telemetry
// snapshot.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Error: j.errMsg, StatusCode: j.status, Response: j.resp}
	if j.state == "running" {
		snap := j.tel.Snapshot()
		st.Progress = &snap
	}
	return st
}

// Stats is the JSON served on /debug/telemetry: cache effectiveness and
// queue health.
type Stats struct {
	CompiledModels CacheStats `json:"compiledModels"`
	Results        CacheStats `json:"results"`
	Jobs           JobCounts  `json:"jobs"`
	UptimeSec      float64    `json:"uptimeSec"`
}

// CacheStats reports one LRU cache.
type CacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hitRate"`
}

// JobCounts reports the job ledger.
type JobCounts struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Queued    int   `json:"queued"`
}

// Server is the analysis service. Create with New, mount Handler on an
// http.Server, and drain with Shutdown.
type Server struct {
	cfg     Config
	models  *lru
	results *lru
	mux     *http.ServeMux
	started time.Time

	mu        sync.Mutex
	queue     chan *job
	jobs      map[string]*job
	busyKeys  map[string]chan struct{} // result keys held by a job (see claim); closed on release
	finished  []string                 // completed-job eviction order
	seq       int
	draining  bool
	submitted int64
	rejected  int64
	completed int64
	failed    int64

	wg sync.WaitGroup
}

// maxFinishedJobs bounds how many completed/failed jobs stay pollable.
const maxFinishedJobs = 256

// New returns a server with cfg's queue and runner pool already running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		models:   newLRU(cfg.ModelCache),
		results:  newLRU(cfg.ResultCache),
		queue:    make(chan *job, cfg.Queue),
		jobs:     make(map[string]*job),
		busyKeys: make(map[string]chan struct{}),
		started:  time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	// The shared debug endpoints (pprof, expvar) mount as-is; the
	// /debug/telemetry slot is served by the server's own cache/queue
	// stats instead of a single run's collector.
	s.mux.Handle("/debug/", telemetry.DebugMux(nil))
	s.mux.HandleFunc("GET /debug/telemetry", s.handleStats)
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: no new jobs are accepted, every accepted job
// runs to completion, and the call returns when the runners have exited or
// ctx expires (whichever comes first). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown drain: %w", ctx.Err())
	}
}

// Stats returns the current cache and queue counters.
func (s *Server) Stats() Stats {
	mh, mm, me := s.models.stats()
	rh, rm, re := s.results.stats()
	s.mu.Lock()
	jc := JobCounts{
		Submitted: s.submitted,
		Rejected:  s.rejected,
		Completed: s.completed,
		Failed:    s.failed,
		Queued:    len(s.queue),
	}
	s.mu.Unlock()
	return Stats{
		CompiledModels: cacheStats(mh, mm, me),
		Results:        cacheStats(rh, rm, re),
		Jobs:           jc,
		UptimeSec:      time.Since(s.started).Seconds(),
	}
}

func cacheStats(hits, misses uint64, entries int) CacheStats {
	cs := CacheStats{Hits: hits, Misses: misses, Entries: entries}
	if total := hits + misses; total > 0 {
		cs.HitRate = float64(hits) / float64(total)
	}
	return cs
}

// submit validates, registers and enqueues a request. The returned status
// is the HTTP code to report when err is non-nil.
func (s *Server) submit(req Request) (*job, int, error) {
	if err := req.normalize(s.cfg.MaxWorkers); err != nil {
		return nil, http.StatusBadRequest, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected++
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down")
	}
	s.seq++
	j := &job{
		id:    fmt.Sprintf("j%08d", s.seq),
		req:   req,
		tel:   slimsim.NewTelemetry(slimsim.TelemetryInfo{Tool: "slimserve"}),
		state: "queued",
		done:  make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.rejected++
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("job queue is full (%d pending); retry later", cap(s.queue))
	}
	s.submitted++
	s.jobs[j.id] = j
	return j, 0, nil
}

// runner drains the job queue until Shutdown closes it.
func (s *Server) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
		// Retire the job before waking its waiting request, so a client
		// holding the response finds the job counted in the ledger.
		s.retire(j)
		close(j.done)
	}
}

// retire moves a finished job into the bounded pollable history.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.Status().State == "error" {
		s.failed++
	} else {
		s.completed++
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// compiled resolves the request's model through the compiled-model cache:
// on a miss the source is compiled and, if admitted, shared with every
// later request for the same bytes. Unless the request sets noLint, a
// model with lint errors is refused, whether it was cached or not; the
// verdict comes from the compiled model itself, so a model first cached
// under noLint still fails every later lint-gated request, and a refused
// miss leaves nothing in the cache.
func (s *Server) compiled(req *Request) (*slimsim.CompiledModel, bool, error) {
	hash := slimsim.ContentHash(req.Model)
	v, hit := s.models.get(hash)
	var cm *slimsim.CompiledModel
	if hit {
		cm = v.(*slimsim.CompiledModel)
	} else {
		var err error
		if cm, err = slimsim.Compile(req.Model); err != nil {
			// A source that does not compile is linted only for the
			// refusal's text.
			if !req.NoLint {
				if lerr := lintRefusal(slimsim.Lint(req.Model)); lerr != nil {
					return nil, false, lerr
				}
			}
			return nil, false, err
		}
	}
	if !req.NoLint {
		if err := lintRefusal(cm.Lint()); err != nil {
			return nil, false, err
		}
	}
	if !hit {
		s.models.add(hash, cm)
	}
	return cm, hit, nil
}

// lintRefusal returns the error that refuses a model with error-severity
// diagnostics, nil when diags has none.
func lintRefusal(diags []slimsim.Diagnostic) error {
	errs, first := 0, ""
	for _, d := range diags {
		if d.Severity == slimsim.SeverityError {
			if errs == 0 {
				first = d.Render("model")
			}
			errs++
		}
	}
	if errs > 0 {
		return fmt.Errorf("model has %d lint error(s), first: %s (set noLint to override)", errs, first)
	}
	return nil
}

// claim waits until no other job holds result key, takes it, and returns
// the function that releases it. The holder memoizes its report before it
// releases, so the next holder of the key finds it in the memo.
func (s *Server) claim(key string) (release func()) {
	for {
		s.mu.Lock()
		busy, ok := s.busyKeys[key]
		if !ok {
			done := make(chan struct{})
			s.busyKeys[key] = done
			s.mu.Unlock()
			return func() {
				s.mu.Lock()
				delete(s.busyKeys, key)
				s.mu.Unlock()
				close(done)
			}
		}
		s.mu.Unlock()
		<-busy
	}
}

// runJob executes one job end to end: compiled-model cache → result memo →
// session run → memoization. Jobs with the same result key run one at a
// time, so a request arriving while an identical one samples waits for it
// and replays its stored bytes instead of sampling a second report that
// would differ in its timing section.
func (s *Server) runJob(j *job) {
	j.setState("running")
	cm, cacheHit, err := s.compiled(&j.req)
	if err != nil {
		j.fail(http.StatusUnprocessableEntity, err)
		return
	}
	key := j.req.resultKey(cm.Hash())
	defer s.claim(key)()
	if v, ok := s.results.get(key); ok {
		m := v.(*memoResult)
		j.finish(&Response{
			JobID:            j.id,
			ModelHash:        cm.Hash(),
			Property:         m.property,
			CompiledCacheHit: cacheHit,
			ResultCacheHit:   true,
			Report:           m.report,
		})
		return
	}
	j.tel.SetRun(telemetry.RunInfo{Model: cm.Hash()})
	sess, err := cm.Model().NewSession(j.req.options(j.tel))
	if err != nil {
		j.fail(http.StatusUnprocessableEntity, err)
		return
	}
	if _, err := sess.Run(); err != nil {
		status := http.StatusInternalServerError
		if slimsim.ExitCode(err) == 1 {
			status = http.StatusUnprocessableEntity
		}
		j.fail(status, err)
		return
	}
	report, err := json.Marshal(j.tel.Report())
	if err != nil {
		j.fail(http.StatusInternalServerError, fmt.Errorf("marshal report: %w", err))
		return
	}
	s.results.add(key, &memoResult{property: sess.PropertyText(), report: report})
	j.finish(&Response{
		JobID:            j.id,
		ModelHash:        cm.Hash(),
		Property:         sess.PropertyText(),
		CompiledCacheHit: cacheHit,
		ResultCacheHit:   false,
		Report:           report,
	})
}
