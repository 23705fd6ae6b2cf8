package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"slimsim"
	"slimsim/internal/casestudy"
	"slimsim/internal/serve"
)

// variant is one model the serve-mix clients send: a launcher or a sensor
// filter with its failure rates scaled by Scale. Tag makes the source
// bytes unique, so a new variant always compiles cold.
type variant struct {
	Kind  string  `json:"kind"` // launcher-recoverable, launcher-permanent or sensor
	N     int     `json:"n,omitempty"`
	Scale float64 `json:"scale"`
	Tag   int     `json:"tag"`
	src   string
}

func (v *variant) render() error {
	var (
		src string
		err error
	)
	switch v.Kind {
	case "sensor":
		p := casestudy.DefaultSensorFilter(v.N)
		p.SensorFailRate *= v.Scale
		p.FilterFailRate *= v.Scale
		src, err = casestudy.SensorFilter(p)
	default:
		mode := casestudy.FaultsRecoverable
		if v.Kind == "launcher-permanent" {
			mode = casestudy.FaultsPermanent
		}
		p := casestudy.DefaultLauncher(mode)
		p.DPUFailRate *= v.Scale
		p.SensorFailRate *= v.Scale
		p.BatteryFailRate *= v.Scale
		src, err = casestudy.Launcher(p)
	}
	v.src = fmt.Sprintf("-- serve-mix variant %d\n%s", v.Tag, src)
	return err
}

func (v *variant) launcher() bool { return v.Kind != "sensor" }

// sreq is one generated serve-mix request.
type sreq struct {
	Class    string `json:"class"` // memo, new-seed, cold, pair-memo or pair-new
	Model    int    `json:"model"`
	Strategy string `json:"strategy"`
	Seed     uint64 `json:"seed"`
}

func (q sreq) key() string { return fmt.Sprintf("%d|%s|%d", q.Model, q.Strategy, q.Seed) }

// serveMix drives serve.New, with its default configuration, behind a
// loopback listener with two closed-loop clients. Each client's schedule is made of blocks of 20
// requests: 14 repeat a key that already completed (one of them, at slot
// 10, sent by both clients at once), 5 use a new seed on a cached model
// (one of them, at slot 0, sent by both clients at once) and 1 carries new
// model bytes.
type serveMix struct {
	variants []variant
	pool     []sreq // keys sampled during warm-up
	clients  [2][]sreq

	srv *server
	// sampled holds, per key, the report bytes of every run that sampled
	// it; a memo replay must return one of them.
	sampled map[string][][]byte
}

const (
	serveEpsilon = 0.05
	serveBlocks  = 200
	serveBases   = 4
)

// rotation hands out the models and strategies of sampling requests in
// turn, from seed-drawn starting points, so that every run's mix has the
// same composition: the two base launchers alternate and cycle through the
// four strategies, and the two base sensor filters alternate.
type rotation struct{ launcher, strategy, sensor int }

func newRotation(r *rand.Rand) *rotation {
	return &rotation{launcher: r.IntN(2), strategy: r.IntN(len(strategies)), sensor: r.IntN(2)}
}

func (rot *rotation) next(launcher bool) (model int, strategy string) {
	if !launcher {
		rot.sensor++
		return 2 + rot.sensor%2, "asap"
	}
	rot.launcher++
	rot.strategy++
	return rot.launcher % 2, strategies[rot.strategy%len(strategies)]
}

// recentKeys is how many of a client's own latest keys its memo requests
// draw from, besides the warm-up pool. With two clients this keeps every
// repeated key well inside the daemon's default caches (32 models, 256
// results), so a repeat can never miss because of an eviction.
const recentKeys = 40

func (w *serveMix) generate(seed uint64) (any, error) {
	scale := func(r *rand.Rand) float64 { return math.Round((0.98+0.04*r.Float64())*1e4) / 1e4 }
	seedOf := func(r *rand.Rand) uint64 { return r.Uint64()>>1 + 1 }
	shared := rand.New(rand.NewPCG(seed, 0x5eed0004))
	w.variants = []variant{
		{Kind: "launcher-recoverable", Scale: scale(shared), Tag: 0},
		{Kind: "launcher-permanent", Scale: scale(shared), Tag: 1},
		{Kind: "sensor", N: 2, Scale: scale(shared), Tag: 2},
		{Kind: "sensor", N: 3, Scale: scale(shared), Tag: 3},
	}
	rot := newRotation(shared)
	w.pool = nil
	for i := 0; i < 2*serveBases; i++ {
		m, st := rot.next(i%2 == 0)
		w.pool = append(w.pool, sreq{Class: "warm-up", Model: m, Strategy: st, Seed: seedOf(shared)})
	}
	// Pair slots draw from the shared stream so both clients send the
	// same key; the memo pair cycles through the warm-up pool, which keeps
	// every pool key recently used.
	pairNew := make([]sreq, serveBlocks)
	pairMemo := make([]sreq, serveBlocks)
	offset := shared.IntN(len(w.pool))
	for b := range pairNew {
		m, st := rot.next(b%5 < 3)
		pairNew[b] = sreq{Class: "pair-new", Model: m, Strategy: st, Seed: seedOf(shared)}
		pairMemo[b] = w.pool[(b+offset)%len(w.pool)]
		pairMemo[b].Class = "pair-memo"
	}
	for c := range w.clients {
		r := rand.New(rand.NewPCG(seed, 0x5eed0010+uint64(c)))
		rot := newRotation(r)
		var own, sched []sreq
		for b := 0; b < serveBlocks; b++ {
			kinds := make([]string, 0, 20)
			for i := 0; i < 13; i++ {
				kinds = append(kinds, "memo")
			}
			for i := 0; i < 4; i++ {
				kinds = append(kinds, "new-seed")
			}
			kinds = append(kinds, "cold")
			r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			kinds = append([]string{"pair-new"}, kinds...)
			kinds = append(kinds[:10], append([]string{"pair-memo"}, kinds[10:]...)...)
			// Three of the five sampling requests a client draws per block
			// go to a launcher, so that launchers are 60% of the sampling
			// class and the 90th percentile falls inside their runs.
			launchers := []bool{true, true, true, false, false}
			r.Shuffle(len(launchers), func(i, j int) { launchers[i], launchers[j] = launchers[j], launchers[i] })
			for _, k := range kinds {
				var q sreq
				switch k {
				case "pair-new":
					q = pairNew[b]
				case "pair-memo":
					q = pairMemo[b]
				case "memo":
					recent := own[max(len(own)-recentKeys, 0):]
					if i := r.IntN(len(w.pool) + len(recent)); i < len(w.pool) {
						q = w.pool[i]
					} else {
						q = recent[i-len(w.pool)]
					}
					q.Class = "memo"
				case "new-seed", "cold":
					m, st := rot.next(launchers[0])
					launchers = launchers[1:]
					if k == "cold" {
						base := w.variants[m]
						w.variants = append(w.variants, variant{Kind: base.Kind, N: base.N, Scale: scale(r), Tag: len(w.variants)})
						m = len(w.variants) - 1
					}
					q = sreq{Class: k, Model: m, Strategy: st, Seed: seedOf(r)}
				}
				sched = append(sched, q)
				if k != "memo" && k != "pair-memo" {
					own = append(own, q)
				}
			}
		}
		w.clients[c] = sched
	}
	for i := range w.variants {
		if err := w.variants[i].render(); err != nil {
			return nil, err
		}
	}
	return struct {
		Variants []variant
		Pool     []sreq
		Clients  [2][]sreq
	}{w.variants, w.pool, w.clients}, nil
}

func (w *serveMix) request(q sreq) serve.Request {
	v := &w.variants[q.Model]
	req := serve.Request{Model: v.src, Strategy: q.Strategy, Epsilon: serveEpsilon, Workers: 1, Seed: q.Seed}
	if v.launcher() {
		req.Goal, req.Bound = casestudy.LauncherGoal, 600
	} else {
		req.Goal, req.Bound = casestudy.SensorFilterGoal, table1Bound
	}
	return req
}

// setup starts a fresh server and sends the warm-up pool, which compiles
// the base models and fills the result memo the memo requests repeat.
func (w *serveMix) setup() error {
	srv, err := startServer()
	if err != nil {
		return err
	}
	w.srv = srv
	w.sampled = map[string][][]byte{}
	for _, q := range w.pool {
		resp, err := srv.analyze(w.request(q))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if resp.ResultCacheHit {
			return fmt.Errorf("warm-up key %s hit the result memo", q.key())
		}
		w.sampled[q.key()] = append(w.sampled[q.key()], resp.Report)
	}
	return nil
}

func (w *serveMix) teardown() {
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
}

// served is one completed request, kept for the checks that need both
// clients' answers.
type served struct {
	q    sreq
	resp *serve.Response
}

// check verifies a response's cache flags against its request class.
func (w *serveMix) check(q sreq, resp *serve.Response) error {
	wantCompiled := q.Class != "cold"
	if resp.CompiledCacheHit != wantCompiled {
		return fmt.Errorf("compiledCacheHit=%v, want %v", resp.CompiledCacheHit, wantCompiled)
	}
	switch q.Class {
	case "memo", "pair-memo":
		if !resp.ResultCacheHit {
			return fmt.Errorf("resultCacheHit=false for a key that completed earlier")
		}
	case "new-seed", "cold":
		if resp.ResultCacheHit {
			return fmt.Errorf("resultCacheHit=true for a new key")
		}
	}
	return nil
}

// checkReplays runs after both clients stopped: every memo replay must be
// byte-identical to the report of a run that sampled its key. A key both
// clients sampled at once has two such runs, and the memo keeps one.
func (w *serveMix) checkReplays(done [2][]served) error {
	for _, d := range done {
		for _, s := range d {
			if !s.resp.ResultCacheHit {
				w.sampled[s.q.key()] = append(w.sampled[s.q.key()], s.resp.Report)
			}
		}
	}
	for _, d := range done {
		for _, s := range d {
			if !s.resp.ResultCacheHit {
				continue
			}
			found := false
			for _, b := range w.sampled[s.q.key()] {
				found = found || bytes.Equal(b, s.resp.Report)
			}
			if !found {
				return fmt.Errorf("memo replay of %s is not byte-identical to any run that sampled it", s.q.key())
			}
		}
	}
	return nil
}

// deterministic strips a run report down to its sections that are a pure
// function of model, property, seed and workers.
func deterministic(report []byte) ([]byte, error) {
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(report, &sections); err != nil {
		return nil, err
	}
	delete(sections, "timing")
	return json.Marshal(sections)
}

// checkPairs compares the two clients' answers to every pair-new slot both
// reached: the same key sampled twice must give identical reports outside
// their timing section.
func checkPairs(done [2][]served) error {
	first := map[string][]byte{}
	for _, s := range done[0] {
		if s.q.Class == "pair-new" {
			b, err := deterministic(s.resp.Report)
			if err != nil {
				return err
			}
			first[s.q.key()] = b
		}
	}
	for _, s := range done[1] {
		a, ok := first[s.q.key()]
		if s.q.Class != "pair-new" || !ok {
			continue
		}
		b, err := deterministic(s.resp.Report)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("pair %s: the two runs disagree", s.q.key())
		}
	}
	return nil
}

// barrier lets the two clients send a pair slot at once. A client that
// stops releases the other.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	arrived map[int]int
	stopped bool
}

func newBarrier() *barrier {
	b := &barrier{arrived: map[int]int{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until both clients reached pair slot k; it returns false
// when the other client stopped first.
func (b *barrier) wait(k int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived[k]++
	b.cond.Broadcast()
	for b.arrived[k] < 2 && !b.stopped {
		b.cond.Wait()
	}
	return b.arrived[k] >= 2
}

func (b *barrier) stop() {
	b.mu.Lock()
	b.stopped = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// loop runs both clients until deadline, or until each has sent limit[c]
// requests when limit is non-nil. With a tracer each request is a span on
// the client's lane, named by the cache flags of its response.
func (w *serveMix) loop(deadline time.Time, limit []int, rec *recorder, tr *tracer) [2][]served {
	var (
		wg   sync.WaitGroup
		done [2][]served
	)
	bar := newBarrier()
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer bar.stop()
			pairs := 0
			for i, q := range w.clients[c] {
				if limit != nil && i >= limit[c] || limit == nil && !time.Now().Before(deadline) {
					return
				}
				if q.Class == "pair-new" || q.Class == "pair-memo" {
					if !bar.wait(pairs) {
						return
					}
					pairs++
				}
				req := w.request(q)
				var start int64
				if tr != nil {
					start = tr.now()
				}
				t0 := time.Now()
				resp, err := w.srv.analyze(req)
				d := time.Since(t0)
				if tr != nil {
					name := "serve.warm"
					switch {
					case err != nil:
						name = "serve.error"
					case resp.ResultCacheHit:
						name = "serve.memo"
					case !resp.CompiledCacheHit:
						name = "serve.cold"
					}
					tr.add(Span{Parent: -1, Query: i, Lane: c, Name: name, Start: start, End: tr.now()})
				}
				if err == nil {
					err = w.check(q, resp)
				}
				if err == nil {
					done[c] = append(done[c], served{q, resp})
				}
				class := "memo"
				if q.Class != "memo" && q.Class != "pair-memo" {
					class = "sampling"
				}
				rec.add(class, d, err)
			}
		}(c)
	}
	wg.Wait()
	return done
}

func (w *serveMix) untraced(e *env) (*outcome, error) {
	in, err := w.generate(e.seed)
	if err != nil {
		return nil, err
	}
	e.printf("input digest: %s\n", digest(in))
	setupS, err := timeSetup(w.setup, w.teardown)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rec := &recorder{}
	start := time.Now()
	done := w.loop(start.Add(time.Duration(e.seconds*float64(time.Second))), nil, rec, nil)
	wall := time.Since(start)
	for _, check := range []func([2][]served) error{checkPairs, w.checkReplays} {
		if err := check(done); err != nil {
			rec.add("check", 0, err)
		}
	}
	e.printf("requests per client: %d, %d\n", len(done[0]), len(done[1]))
	return endToEnd(e, rec, wall, setupS)
}

// traced runs the mix twice on fresh servers, untraced for half the time
// and then traced for the same requests, so trace.overhead compares like
// with like; then it rebuilds the daemon's job for the first sampling
// requests and checks the rebuilt answers against the served ones.
func (w *serveMix) traced(e *env, tr *tracer) (*layerInput, error) {
	in, err := w.generate(e.seed)
	if err != nil {
		return nil, err
	}
	e.printf("input digest: %s\n", digest(in))
	srcs := make([]string, serveBases)
	for i := range srcs {
		srcs[i] = w.variants[i].src
	}
	li := &layerInput{tr: tr}
	if li.compileAllocKB, err = compileAllocKB(srcs); err != nil {
		return nil, err
	}

	if err := w.setup(); err != nil {
		return nil, err
	}
	rec := &recorder{}
	t0 := time.Now()
	plain := w.loop(t0.Add(time.Duration(e.seconds/2*float64(time.Second))), nil, rec, nil)
	plainWall := time.Since(t0)
	for _, check := range []func([2][]served) error{checkPairs, w.checkReplays} {
		if err := check(plain); err != nil {
			return nil, err
		}
	}
	w.teardown()
	if err := w.setup(); err != nil {
		return nil, err
	}
	defer w.teardown()
	tr.setPhase("pass")
	passStart := tr.now()
	t1 := time.Now()
	traced := w.loop(time.Time{}, []int{len(plain[0]), len(plain[1])}, rec, tr)
	tracedWall := time.Since(t1)
	li.passWall = tr.now() - passStart
	if len(rec.errs) > 0 {
		return nil, fmt.Errorf("serve-mix: %s", rec.errs[0])
	}
	for _, check := range []func([2][]served) error{checkPairs, w.checkReplays} {
		if err := check(traced); err != nil {
			return nil, err
		}
	}
	li.queries = len(traced[0]) + len(traced[1])
	li.overhead = tracedWall.Seconds() / plainWall.Seconds()
	li.serve = w.counts(traced)
	printBlockSpread(e, traced)

	// Rebuild the daemon's job for the first sampling responses.
	tr.setPhase("check")
	checked := 0
	for _, s := range append(traced[0], traced[1]...) {
		if s.resp.ResultCacheHit || checked == 4 {
			continue
		}
		if err := rebuildJob(tr, &li.pass, w.request(s.q), s.resp, checked); err != nil {
			return nil, fmt.Errorf("request %s: %w", s.q.key(), err)
		}
		checked++
	}
	return li, nil
}

// counts reads the server's cache counters and the share of sampling runs
// that computed a key no other run computed.
func (w *serveMix) counts(done [2][]served) *serveCounts {
	st := w.srv.srv.Stats()
	runs, keys := 0, map[string]bool{}
	for _, d := range done {
		for _, s := range d {
			if !s.resp.ResultCacheHit {
				runs++
				keys[s.q.key()] = true
			}
		}
	}
	sc := &serveCounts{
		modelHitRate:  st.CompiledModels.HitRate,
		resultHitRate: st.Results.HitRate,
		rejected:      st.Jobs.Rejected,
	}
	if runs > 0 {
		sc.usefulRunRatio = float64(len(keys)) / float64(runs)
	}
	return sc
}

// printBlockSpread reports how the timing-dependent serve ratios vary over
// the schedule's blocks of 20 requests per client, as seen in the
// responses' cache flags.
func printBlockSpread(e *env, done [2][]served) {
	var model, result, useful []float64
	for b := 0; 20*(b+1) <= min(len(done[0]), len(done[1])); b++ {
		var n, mh, rh, runs int
		keys := map[string]bool{}
		for _, d := range done {
			for _, s := range d[20*b : 20*(b+1)] {
				n++
				if s.resp.CompiledCacheHit {
					mh++
				}
				if s.resp.ResultCacheHit {
					rh++
				} else {
					runs++
					keys[s.q.key()] = true
				}
			}
		}
		model = append(model, float64(mh)/float64(n))
		result = append(result, float64(rh)/float64(n))
		useful = append(useful, float64(len(keys))/float64(runs))
	}
	if len(model) < 2 {
		return
	}
	for _, r := range []struct {
		name string
		v    []float64
	}{{"model hit rate", model}, {"result hit rate", result}, {"useful run ratio", useful}} {
		q1, q3 := quartiles(r.v)
		e.printf("serve %s per block: median %.4f, quartiles %.4f..%.4f over %d blocks (depends on timing)\n",
			r.name, median(r.v), q1, q3, len(r.v))
	}
}

// rebuildJob repeats the daemon's job for req from the program's parts and
// requires its answers to match resp: the rebuilt Monte Carlo estimate must
// equal the served one bit for bit, and a facade session with telemetry
// must render a report identical to the served one outside its timing
// section.
func rebuildJob(tr *tracer, c *counts, req serve.Request, resp *serve.Response, qid int) error {
	id := tr.begin("bench.job", -1, qid, 0)
	defer tr.end(id)
	t := &tctx{tr: tr, c: c, query: qid, parent: id}
	art, err := t.compile(req.Model)
	if err != nil {
		return err
	}
	got, err := t.monteCarlo(art, mcSpec{goal: req.Goal, bound: req.Bound, strategy: req.Strategy,
		delta: 0.05, epsilon: req.Epsilon, seed: req.Seed, workers: req.Workers})
	if err != nil {
		return err
	}
	var rep struct {
		Sampling struct {
			Samples   int     `json:"samples"`
			Successes int     `json:"successes"`
			Estimate  float64 `json:"estimate"`
		} `json:"sampling"`
	}
	if err := json.Unmarshal(resp.Report, &rep); err != nil {
		return err
	}
	e := got.est[0]
	if e.Trials != rep.Sampling.Samples || e.Successes != rep.Sampling.Successes ||
		math.Float64bits(got.p[0]) != math.Float64bits(rep.Sampling.Estimate) {
		return fmt.Errorf("rebuilt flow answered %d/%d, the daemon %d/%d",
			e.Successes, e.Trials, rep.Sampling.Successes, rep.Sampling.Samples)
	}

	cm, err := slimsim.Compile(req.Model)
	if err != nil {
		return err
	}
	tel := slimsim.NewTelemetry(slimsim.TelemetryInfo{Tool: "slimserve"})
	tel.SetRun(slimsim.TelemetryInfo{Model: cm.Hash()})
	sess, err := cm.Model().NewSession(slimsim.Options{Telemetry: tel, Kind: slimsim.Reachability, Goal: req.Goal,
		Bound: req.Bound, Strategy: req.Strategy, Delta: 0.05, Epsilon: req.Epsilon, Method: "chernoff",
		Workers: req.Workers, Seed: req.Seed, OnLock: "violate"})
	if err != nil {
		return err
	}
	if _, err := sess.Run(); err != nil {
		return err
	}
	var report []byte
	if err := t.span("telemetry.report", func() error {
		report, err = json.Marshal(tel.Report())
		return err
	}); err != nil {
		return err
	}
	a, err := deterministic(report)
	if err != nil {
		return err
	}
	b, err := deterministic(resp.Report)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("facade report differs from the served one outside timing")
	}
	return nil
}

// server is a serve.Server behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(serve.Config{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 2 * time.Minute},
		done:   make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// analyze sends one synchronous /v1/analyze request.
func (s *server) analyze(req serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var out serve.Response
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// close shuts the HTTP server and the analysis service down and waits for
// both.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	_ = s.srv.Shutdown(ctx)
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("serve:", err)
	}
	s.client.CloseIdleConnections()
}
