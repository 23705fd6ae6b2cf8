package network

// CachedMoves is the memoized move set of one location vector. The
// candidate moves of a state depend only on the processes' locations (never
// on variable values or time — guards are evaluated separately), so the
// enumeration, its guarded/Markovian split and the rendered labels can all
// be computed once per location vector and reused for every visit.
//
// The exported fields are shared cache state: callers must treat them as
// immutable. Trace labels are rendered one move at a time on first use
// (see Label), so callers that never read them, such as the CTMC builder
// or a sampling run without an observer, never pay for them.
type CachedMoves struct {
	// Guarded and Markovian split the Runtime.Moves enumeration, each
	// keeping its order; Guarded holds the non-Markovian candidates the
	// strategy chooses among.
	Guarded   []Move
	Markovian []Move

	rt *Runtime
	// labels is parallel to the split array (Guarded, then Markovian);
	// it is allocated on the first Label or MarkLabel call and filled
	// slot by slot, "" marking a label not yet rendered.
	labels []string
}

// Label returns the rendered trace label of Guarded[i], rendering it on the
// first call. Like the cache that owns it, a CachedMoves is confined to one
// goroutine, so the lazy fill needs no synchronization.
func (cm *CachedMoves) Label(i int) string {
	return cm.label(i, &cm.Guarded[i])
}

// MarkLabel returns the rendered trace label of Markovian[i], rendering it
// on the first call (see Label).
func (cm *CachedMoves) MarkLabel(i int) string {
	return cm.label(len(cm.Guarded)+i, &cm.Markovian[i])
}

func (cm *CachedMoves) label(slot int, m *Move) string {
	if cm.labels == nil {
		cm.labels = make([]string, len(cm.Guarded)+len(cm.Markovian))
	}
	if cm.labels[slot] == "" {
		cm.labels[slot] = m.Label(cm.rt)
	}
	return cm.labels[slot]
}

// cacheEntry pairs a memoized move set with its last-use stamp.
type cacheEntry struct {
	cm    CachedMoves
	stamp uint64
}

// MoveCache memoizes Runtime.Moves per location vector. It is not safe for
// concurrent use: each worker owns its own cache (inside its Scratch), so
// lookups are lock-free. Capacity is bounded; when full, the
// least-recently-used entry is evicted.
type MoveCache struct {
	rt      *Runtime
	entries map[string]*cacheEntry
	keyBuf  []byte
	stamp   uint64
	cap     int

	hits, misses uint64
}

func (c *MoveCache) init(rt *Runtime, capacity int) {
	if capacity <= 0 {
		capacity = DefaultMoveCacheCap
	}
	c.rt = rt
	c.cap = capacity
	// The map grows on use: capacity is the eviction bound, not a size
	// hint, so a scratch that sees few location vectors stays small.
	c.entries = make(map[string]*cacheEntry)
}

// lookup returns the cached move set for st's location vector, computing
// and inserting it on a miss. The map lookup with a string(byte-slice)
// conversion compiles to an allocation-free probe, so cache hits do not
// allocate.
func (c *MoveCache) lookup(st *State) *CachedMoves {
	buf := c.keyBuf[:0]
	for _, l := range st.Locs {
		buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	c.keyBuf = buf
	c.stamp++
	if e, ok := c.entries[string(buf)]; ok {
		c.hits++
		e.stamp = c.stamp
		return &e.cm
	}
	c.misses++
	e := &cacheEntry{cm: c.rt.movesFor(st), stamp: c.stamp}
	if len(c.entries) >= c.cap {
		c.evict()
	}
	c.entries[string(buf)] = e
	return &e.cm
}

// evict removes roughly the least-recently-used half of the entries: one
// pass finds the stamp range, a second deletes everything in its older
// half. Batch eviction keeps the per-miss cost amortized O(1) even when the
// working set exceeds the capacity, where single-entry LRU would rescan the
// whole table on every miss.
func (c *MoveCache) evict() {
	if len(c.entries) == 0 {
		return
	}
	lo, hi := c.stamp, uint64(0)
	for _, e := range c.entries {
		if e.stamp < lo {
			lo = e.stamp
		}
		if e.stamp > hi {
			hi = e.stamp
		}
	}
	// Entries at the minimum stamp are always evicted, so the map shrinks
	// even when all stamps coincide.
	threshold := lo + (hi-lo)/2
	for k, e := range c.entries {
		if e.stamp <= threshold {
			delete(c.entries, k)
		}
	}
}

// movesFor enumerates the moves of st and splits them stably into one
// backing array, guarded moves first.
func (rt *Runtime) movesFor(st *State) CachedMoves {
	all := rt.Moves(st)
	split := make([]Move, 0, len(all))
	for i := range all {
		if !all[i].Markovian() {
			split = append(split, all[i])
		}
	}
	guarded := len(split)
	for i := range all {
		if all[i].Markovian() {
			split = append(split, all[i])
		}
	}
	return CachedMoves{Guarded: split[:guarded:guarded], Markovian: split[guarded:], rt: rt}
}
