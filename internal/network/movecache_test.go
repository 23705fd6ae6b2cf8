package network

import (
	"fmt"
	"math"
	"testing"

	"slimsim/internal/expr"
	"slimsim/internal/sta"
)

// ringNet builds a single-process network with n locations in a guarded
// ring, so every location vector has a distinct move set: location i's
// only candidate move is transition i.
func ringNet(t *testing.T, n int) (*Runtime, State) {
	t.Helper()
	locs := make([]sta.Location, n)
	trs := make([]sta.Transition, n)
	for i := 0; i < n; i++ {
		locs[i] = sta.Location{Name: fmt.Sprintf("l%d", i)}
		trs[i] = sta.Transition{
			From: sta.LocID(i), To: sta.LocID((i + 1) % n),
			Action: sta.Tau, Guard: expr.True(),
		}
	}
	p := &sta.Process{
		Name: "ring", Locations: locs, Initial: 0, Transitions: trs,
		Alphabet: map[string]struct{}{},
	}
	rt, err := New(&sta.Network{Processes: []*sta.Process{p}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := rt.InitialState()
	if err != nil {
		t.Fatalf("InitialState: %v", err)
	}
	return rt, st
}

// checkEntry asserts the cached move set of location loc is the one the
// runtime would enumerate fresh: exactly transition loc of process 0.
func checkEntry(t *testing.T, cm *CachedMoves, loc int) {
	t.Helper()
	if len(cm.Guarded) != 1 || len(cm.Markovian) != 0 {
		t.Fatalf("loc %d: %d guarded and %d Markovian moves, want 1 guarded", loc, len(cm.Guarded), len(cm.Markovian))
	}
	if got := cm.Guarded[0].Parts[0].Trans; got != loc {
		t.Fatalf("loc %d: cached move fires transition %d", loc, got)
	}
}

// TestMoveCacheEvictionChurn forces eviction churn with a working set far
// above capacity and pins the cache's invariants: every lookup returns the
// correct move set, the table never exceeds its capacity, and a small hot
// set settles back to pure hits once the churn stops.
func TestMoveCacheEvictionChurn(t *testing.T) {
	const n, capacity = 64, 8
	rt, st := ringNet(t, n)
	var c MoveCache
	c.init(rt, capacity)

	// Stride-7 churn touches all 64 location vectors with capacity 8, so
	// batch eviction runs many times.
	for j := 0; j < 1000; j++ {
		loc := (j * 7) % n
		st.Locs[0] = sta.LocID(loc)
		checkEntry(t, c.lookup(&st), loc)
		if len(c.entries) > capacity {
			t.Fatalf("after %d lookups: %d entries exceed capacity %d", j+1, len(c.entries), capacity)
		}
	}
	if c.hits+c.misses != 1000 {
		t.Fatalf("hits %d + misses %d != 1000 lookups", c.hits, c.misses)
	}
	if c.misses <= capacity {
		t.Fatalf("churn produced only %d misses; eviction never forced recomputation", c.misses)
	}

	// A hot set smaller than half the capacity can be evicted at most once
	// more (by an insertion-triggered batch); after that every round hits.
	hot := []int{3, 11, 42}
	for r := 0; r < 2; r++ {
		for _, loc := range hot {
			st.Locs[0] = sta.LocID(loc)
			checkEntry(t, c.lookup(&st), loc)
		}
	}
	hitsBefore := c.hits
	for r := 0; r < 10; r++ {
		for _, loc := range hot {
			st.Locs[0] = sta.LocID(loc)
			checkEntry(t, c.lookup(&st), loc)
		}
	}
	if got := c.hits - hitsBefore; got != uint64(10*len(hot)) {
		t.Fatalf("hot set of %d produced %d hits over 10 rounds, want %d",
			len(hot), got, 10*len(hot))
	}
}

// TestMoveCacheMinStampTie pins the documented eviction guarantee: entries
// at the minimum stamp are always evicted, so the table shrinks even when
// stamps coincide, and hot (max-stamp) entries survive a partial tie.
func TestMoveCacheMinStampTie(t *testing.T) {
	const capacity = 8
	rt, st := ringNet(t, 16)
	var c MoveCache
	c.init(rt, capacity)
	for loc := 0; loc < 4; loc++ {
		st.Locs[0] = sta.LocID(loc)
		c.lookup(&st)
	}

	// Partial tie: two cold entries share the minimum, two hot ones the
	// maximum. The cold half must go, the hot half must stay.
	stamps := []uint64{5, 5, 9, 9}
	i := 0
	hotKeys := map[string]bool{}
	for k, e := range c.entries {
		e.stamp = stamps[i%len(stamps)]
		if e.stamp == 9 {
			hotKeys[k] = true
		}
		i++
	}
	c.stamp = 9 // evict seeds its scan from the counter
	c.evict()
	if len(c.entries) != len(hotKeys) {
		t.Fatalf("partial tie: %d entries survive, want %d", len(c.entries), len(hotKeys))
	}
	for k := range c.entries {
		if !hotKeys[k] {
			t.Fatalf("cold entry %q survived eviction", k)
		}
	}

	// Full tie: every entry at the same stamp. The map must still shrink
	// (to empty), not spin without progress.
	for _, e := range c.entries {
		e.stamp = 7
	}
	c.stamp = 7
	c.evict()
	if len(c.entries) != 0 {
		t.Fatalf("full tie: %d entries survive, want 0", len(c.entries))
	}

	// Evicted vectors recompute correctly on the next lookup.
	st.Locs[0] = 2
	checkEntry(t, c.lookup(&st), 2)
}

// TestMoveCacheLargeStamps pins the threshold arithmetic against overflow:
// with stamps near the top of uint64, lo+(hi-lo)/2 must still separate the
// old half from the new half (the naive (lo+hi)/2 wraps around and evicts
// nothing — or the wrong half).
func TestMoveCacheLargeStamps(t *testing.T) {
	const capacity = 8
	rt, st := ringNet(t, 16)
	var c MoveCache
	c.init(rt, capacity)
	for loc := 0; loc < 6; loc++ {
		st.Locs[0] = sta.LocID(loc)
		c.lookup(&st)
	}
	newKeys := map[string]bool{}
	i := 0
	for k, e := range c.entries {
		if i < 3 {
			e.stamp = math.MaxUint64 - 1000 // old half
		} else {
			e.stamp = math.MaxUint64 - uint64(i) // new half
			newKeys[k] = true
		}
		i++
	}
	c.stamp = math.MaxUint64
	c.evict()
	if len(c.entries) != len(newKeys) {
		t.Fatalf("%d entries survive, want the %d newest", len(c.entries), len(newKeys))
	}
	for k := range c.entries {
		if !newKeys[k] {
			t.Fatalf("old entry %q survived eviction", k)
		}
	}

	// The counter itself keeps working in that range: further lookups and
	// insertion-triggered evictions stay correct and bounded.
	c.stamp = math.MaxUint64 - 50
	for j := 0; j < 40; j++ {
		loc := (j * 5) % 16
		st.Locs[0] = sta.LocID(loc)
		checkEntry(t, c.lookup(&st), loc)
		if len(c.entries) > capacity {
			t.Fatalf("%d entries exceed capacity %d", len(c.entries), capacity)
		}
	}
}

// TestMoveCacheLabelsOnFirstUse: a miss renders no trace labels; Label and
// MarkLabel render one move's label on first use, equal to Move.Label,
// leave the other moves unrendered, and later calls return the stored
// rendering without allocating.
func TestMoveCacheLabelsOnFirstUse(t *testing.T) {
	rt, st := benchNet(t)
	var c MoveCache
	c.init(rt, 0)
	cm := c.lookup(&st)
	if len(cm.Guarded) == 0 || len(cm.Markovian) == 0 {
		t.Fatalf("reference state has %d guarded and %d Markovian moves, want both", len(cm.Guarded), len(cm.Markovian))
	}
	rendered := func() int {
		n := 0
		for _, l := range cm.labels {
			if l != "" {
				n++
			}
		}
		return n
	}
	if cm.labels != nil {
		t.Fatal("a cache miss rendered labels before any caller asked for them")
	}
	if got, want := cm.MarkLabel(0), cm.Markovian[0].Label(rt); got != want {
		t.Errorf("MarkLabel(0) = %q, want %q", got, want)
	}
	if n := rendered(); n != 1 {
		t.Fatalf("one MarkLabel call rendered %d labels, want 1", n)
	}
	for i := range cm.Guarded {
		if got, want := cm.Label(i), cm.Guarded[i].Label(rt); got != want {
			t.Errorf("Label(%d) = %q, want %q", i, got, want)
		}
	}
	for i := range cm.Markovian {
		if got, want := cm.MarkLabel(i), cm.Markovian[i].Label(rt); got != want {
			t.Errorf("MarkLabel(%d) = %q, want %q", i, got, want)
		}
	}
	if n, want := rendered(), len(cm.Guarded)+len(cm.Markovian); n != want {
		t.Errorf("%d labels rendered after reading all, want %d", n, want)
	}
	last := len(cm.Markovian) - 1
	if avg := testing.AllocsPerRun(100, func() { cm.Label(0); cm.MarkLabel(last) }); avg != 0 {
		t.Errorf("rendered labels re-read with %.1f allocations, want 0", avg)
	}
}
