package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
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

// newTestServer returns a small drained-on-cleanup server and its base URL.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts.URL
}

func analyze(t *testing.T, url string, req Request) (*Response, int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, httpResp.StatusCode, buf.String()
	}
	var resp Response
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		t.Fatalf("decode response %q: %v", buf.String(), err)
	}
	return &resp, httpResp.StatusCode, buf.String()
}

func quickRequest() Request {
	return Request{
		Model:   testModel,
		Goal:    "not u.alive",
		Bound:   10,
		Delta:   0.1,
		Epsilon: 0.1,
		Seed:    7,
	}
}

// TestAnalyzeCacheHitByteIdentical is the acceptance test of the daemon:
// two sequential identical requests return byte-identical schema-v1
// reports, and the second skips both compilation and sampling, with the
// cache hits surfaced in the response and in /debug/telemetry.
func TestAnalyzeCacheHitByteIdentical(t *testing.T) {
	_, url := newTestServer(t, Config{})

	first, code, raw := analyze(t, url, quickRequest())
	if first == nil {
		t.Fatalf("first request failed: %d %s", code, raw)
	}
	if first.CompiledCacheHit || first.ResultCacheHit {
		t.Errorf("first request must miss both caches, got compiled=%v result=%v",
			first.CompiledCacheHit, first.ResultCacheHit)
	}
	var report struct {
		SchemaVersion int `json:"schemaVersion"`
	}
	if err := json.Unmarshal(first.Report, &report); err != nil || report.SchemaVersion != 1 {
		t.Errorf("report is not schema v1: version=%d err=%v", report.SchemaVersion, err)
	}

	second, code, raw := analyze(t, url, quickRequest())
	if second == nil {
		t.Fatalf("second request failed: %d %s", code, raw)
	}
	if !second.CompiledCacheHit {
		t.Errorf("second request must hit the compiled-model cache")
	}
	if !second.ResultCacheHit {
		t.Errorf("second request must hit the result memo")
	}
	if !bytes.Equal(first.Report, second.Report) {
		t.Errorf("reports differ:\nfirst:  %s\nsecond: %s", first.Report, second.Report)
	}
	if first.ModelHash != second.ModelHash || !strings.HasPrefix(first.ModelHash, "sha256:") {
		t.Errorf("model hashes differ or malformed: %q vs %q", first.ModelHash, second.ModelHash)
	}

	statsResp, err := http.Get(url + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CompiledModels.Hits < 1 || st.CompiledModels.Misses < 1 {
		t.Errorf("compiled-model cache counters not surfaced: %+v", st.CompiledModels)
	}
	if st.Results.Hits < 1 || st.Results.Entries < 1 {
		t.Errorf("result memo counters not surfaced: %+v", st.Results)
	}
	if st.Jobs.Completed < 2 {
		t.Errorf("job ledger not surfaced: %+v", st.Jobs)
	}
}

// TestResultKeySensitivity: changing any run knob must run a fresh
// analysis, not replay the memo.
func TestResultKeySensitivity(t *testing.T) {
	_, url := newTestServer(t, Config{})

	first, code, raw := analyze(t, url, quickRequest())
	if first == nil {
		t.Fatalf("first request failed: %d %s", code, raw)
	}
	req := quickRequest()
	req.Seed = 8
	second, code, raw := analyze(t, url, req)
	if second == nil {
		t.Fatalf("second request failed: %d %s", code, raw)
	}
	if !second.CompiledCacheHit {
		t.Errorf("same model must hit the compiled cache even with a new seed")
	}
	if second.ResultCacheHit {
		t.Errorf("different seed must not hit the result memo")
	}
}

// TestValidationRejects exercises the submission-time checks, including
// the server-side Chernoff budget guard.
func TestValidationRejects(t *testing.T) {
	_, url := newTestServer(t, Config{})
	cases := []struct {
		name string
		mut  func(*Request)
		want string
	}{
		{"empty model", func(r *Request) { r.Model = " " }, "model source is required"},
		{"no property", func(r *Request) { r.Goal = "" }, "pattern or goal"},
		{"bad bound", func(r *Request) { r.Bound = -1 }, "bound must be positive"},
		{"bad delta", func(r *Request) { r.Delta = 1.5 }, "delta must lie in (0,1)"},
		{"bad epsilon", func(r *Request) { r.Epsilon = -0.1 }, "epsilon must lie in (0,1)"},
		{"bad kind", func(r *Request) { r.Kind = "eventually" }, "unknown property kind"},
		{"bad strategy", func(r *Request) { r.Strategy = "warp" }, "unknown strategy"},
		{"bad method", func(r *Request) { r.Method = "bayes" }, "unknown"},
		{"bad onLock", func(r *Request) { r.OnLock = "ignore" }, "onLock must be"},
		{"too many workers", func(r *Request) { r.Workers = 4096 }, "workers must lie in"},
		{"chernoff overflow", func(r *Request) { r.Epsilon = 1e-9 }, "exceeds N_max"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := quickRequest()
			tc.mut(&req)
			resp, code, raw := analyze(t, url, req)
			if resp != nil || code != http.StatusBadRequest {
				t.Fatalf("want 400, got %d %s", code, raw)
			}
			if !strings.Contains(raw, tc.want) {
				t.Errorf("error %q does not mention %q", raw, tc.want)
			}
		})
	}
}

// lintFailRequest posts the SL301 lint fixture (an "in modes" clause naming
// a mode that does not exist): it compiles, but lint reports an error.
func lintFailRequest(t *testing.T) Request {
	t.Helper()
	src, err := os.ReadFile("../lint/testdata/sl301.slim")
	if err != nil {
		t.Fatal(err)
	}
	return Request{Model: string(src), Goal: "true", Bound: 1, Delta: 0.1, Epsilon: 0.1, Seed: 1}
}

// TestLintGate: a model whose lint pass reports errors is rejected with
// 422 unless noLint is set.
func TestLintGate(t *testing.T) {
	_, url := newTestServer(t, Config{})
	req := lintFailRequest(t)
	if _, code, raw := analyze(t, url, req); code != http.StatusUnprocessableEntity || !strings.Contains(raw, "SL301") {
		t.Errorf("lint-failing model: want 422 naming SL301, got %d %s", code, raw)
	}
	req.NoLint = true
	if _, code, raw := analyze(t, url, req); code != http.StatusOK {
		t.Errorf("lint-failing model with noLint: want 200, got %d %s", code, raw)
	}
}

// TestLintGateNotBypassedByCache: the lint verdict is part of the cached
// model, so a noLint request that compiles and caches a lint-failing model
// does not let later lint-gated requests for the same bytes through.
func TestLintGateNotBypassedByCache(t *testing.T) {
	_, url := newTestServer(t, Config{})
	gated := lintFailRequest(t)
	override := gated
	override.NoLint = true
	if _, code, raw := analyze(t, url, gated); code != http.StatusUnprocessableEntity {
		t.Fatalf("first gated request: want 422, got %d %s", code, raw)
	}
	if resp, code, raw := analyze(t, url, override); code != http.StatusOK || resp.CompiledCacheHit {
		t.Fatalf("noLint request: want 200 from a fresh compile, got %d %s", code, raw)
	}
	if _, code, raw := analyze(t, url, gated); code != http.StatusUnprocessableEntity || !strings.Contains(raw, "SL301") {
		t.Errorf("gated request after the model was cached: want 422 naming SL301, got %d %s", code, raw)
	}
	if resp, code, raw := analyze(t, url, override); code != http.StatusOK || !resp.CompiledCacheHit {
		t.Errorf("second noLint request: want 200 from the model cache, got %d %s", code, raw)
	}
}

// TestUnknownFieldRejected: typoed knob names fail loudly.
func TestUnknownFieldRejected(t *testing.T) {
	_, url := newTestServer(t, Config{})
	resp, err := http.Post(url+"/v1/analyze", "application/json",
		strings.NewReader(`{"model":"x","goal":"y","bound":1,"sede":9}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field must be a 400, got %d", resp.StatusCode)
	}
}

// TestAsyncJobLifecycle drives the async path: submit, poll until done,
// and stream at least one SSE event.
func TestAsyncJobLifecycle(t *testing.T) {
	_, url := newTestServer(t, Config{})
	body, _ := json.Marshal(quickRequest())
	httpResp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted JobStatus
	if err := json.NewDecoder(httpResp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusAccepted || accepted.ID == "" {
		t.Fatalf("submit: got %d %+v", httpResp.StatusCode, accepted)
	}

	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		pollResp, err := http.Get(url + "/v1/jobs/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(pollResp.Body).Decode(&st)
		pollResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "error" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", accepted.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" || st.Response == nil {
		t.Fatalf("job failed: %+v", st)
	}

	// The job is finished, so the event stream must deliver the final
	// "result" event immediately.
	evResp, err := http.Get(url + "/v1/jobs/" + accepted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type = %q", ct)
	}
	var stream bytes.Buffer
	if _, err := stream.ReadFrom(evResp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stream.String(), "event: result") {
		t.Errorf("event stream %q lacks the final result event", stream.String())
	}

	if _, err := http.Get(url + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullRejects: a zero-runner server cannot drain, so submissions
// beyond the queue bound are 503s, not an unbounded backlog.
func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Queue: 1, Jobs: 1})
	// Occupy the single runner and the single queue slot with slow jobs.
	slow := quickRequest()
	slow.Epsilon = 0.005
	slow.Delta = 0.01
	var fills []*job
	fillDeadline := time.Now().Add(10 * time.Second)
	for len(fills) < 2 {
		j, _, err := s.submit(slow)
		if err != nil {
			// The runner has not dequeued the previous job yet; give it a
			// beat and retry.
			if time.Now().After(fillDeadline) {
				t.Fatalf("fill rejected for 10s: %v", err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		fills = append(fills, j)
		slow.Seed++ // distinct memo keys so nothing short-circuits
	}
	// Eventually the queue has no free slot (the runner may have grabbed
	// one job already, so saturate until a rejection shows up).
	deadline := time.Now().Add(10 * time.Second)
	for {
		slow.Seed++
		j, code, err := s.submit(slow)
		if err != nil {
			if code != http.StatusServiceUnavailable || !strings.Contains(err.Error(), "queue is full") {
				t.Fatalf("want 503 queue-full, got %d %v", code, err)
			}
			break
		}
		fills = append(fills, j)
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain must have completed every accepted job.
	for i, j := range fills {
		select {
		case <-j.done:
		default:
			t.Errorf("accepted job %d (%s) not finished after drain", i, j.id)
		}
	}
	if _, code, err := s.submit(slow); err == nil || code != http.StatusServiceUnavailable {
		t.Errorf("submissions after shutdown must be 503, got %d %v", code, err)
	}
}

// TestConcurrentIdenticalRequests hammers one server with identical and
// distinct requests from many goroutines; every identical pair must agree
// byte-for-byte regardless of which one populated the memo, because each
// request identity is sampled exactly once and every other request for it
// replays the memo.
func TestConcurrentIdenticalRequests(t *testing.T) {
	_, url := newTestServer(t, Config{Jobs: 4, Queue: 64})
	const n = 8
	reports := make([][]byte, n)
	sampled := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := quickRequest()
			req.Seed = uint64(3 + i%2) // two distinct request identities
			resp, code, raw := analyze(t, url, req)
			if resp == nil {
				t.Errorf("request %d failed: %d %s", i, code, raw)
				return
			}
			reports[i] = resp.Report
			sampled[i] = !resp.ResultCacheHit
		}(i)
	}
	wg.Wait()
	for id := 0; id < 2; id++ {
		runs := 0
		for i := id; i < n; i += 2 {
			if sampled[i] {
				runs++
			}
		}
		if runs != 1 {
			t.Errorf("request identity %d was sampled %d times, want once", id, runs)
		}
	}
	for i := 0; i < n; i++ {
		for k := i + 2; k < n; k += 2 {
			if !bytes.Equal(reports[i], reports[k]) {
				t.Fatalf("identical requests %d and %d disagree:\n%s\n%s", i, k, reports[i], reports[k])
			}
		}
	}
}

// TestLRUEviction pins the cache mechanics directly.
func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.add("c", 3) // evicts b (least recently used after a's promotion)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Error("a should survive: it was promoted before c arrived")
	}
	if v, ok := c.get("c"); !ok || v.(int) != 3 {
		t.Error("c should be cached")
	}
	hits, misses, entries := c.stats()
	if entries != 2 || hits != 3 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses, %d entries; want 3, 1, 2", hits, misses, entries)
	}
	c.add("c", 4)
	if v, _ := c.get("c"); v.(int) != 4 {
		t.Error("re-adding a key must refresh its value")
	}
}

// TestHealthz covers the liveness probe in both states.
func TestHealthz(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthy server must report 200, got %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server must report 503, got %d", resp.StatusCode)
	}
}

func ExampleRequest_resultKey() {
	r := quickRequestForExample()
	if err := r.normalize(16); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(strings.Count(r.resultKey("sha256:x"), "|"))
	// Output: 14
}

func quickRequestForExample() Request {
	return Request{Model: "m", Goal: "g", Bound: 1}
}
