package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the traced run from the
// benchmark's side of the call. Times are nanoseconds since the tracer's
// epoch. Parent is -1 for a root span, Query is -1 outside queries, and Lane
// names the goroutine the call ran on: 0 is the driving goroutine, w+1 is
// sampling worker w. Phase is the stage of the run the span belongs to
// (setup, pass or probe).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Dur is the span's duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Layer is the module a span belongs to: its name up to the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: sampling workers record path spans while the driving
// goroutine records the enclosing ones.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	phase string
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), phase: "setup"} }

// setPhase labels the spans recorded from now on.
func (t *tracer) setPhase(phase string) {
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, query, lane int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Query: query, Lane: lane, Name: name, Phase: t.phase, Start: start, End: -1})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	s.Phase = t.phase
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent's
// interval and overlapping children count once.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the spans' intervals within
// [lo, hi].
func covered(lo, hi int64, spans []Span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerShares sums self time per layer, and checks that on every lane the
// self times sum to no more than wall: each lane is one goroutine, so its
// spans can cover each instant only once.
func layerShares(spans []Span, wall int64) (map[string]int64, error) {
	self := selfTimes(spans)
	byLayer := make(map[string]int64)
	byLane := make(map[int]int64)
	for i, s := range spans {
		if self[i] < 0 {
			return nil, fmt.Errorf("span %s (%d) has negative self time %d", s.Name, s.ID, self[i])
		}
		byLayer[s.Layer()] += self[i]
		byLane[s.Lane] += self[i]
	}
	for lane, sum := range byLane {
		if sum > wall {
			return nil, fmt.Errorf("lane %d: self times sum to %d ns, beyond the traced wall time %d ns", lane, sum, wall)
		}
	}
	return byLayer, nil
}
