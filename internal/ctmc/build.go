package ctmc

import (
	"fmt"
	"sort"

	"slimsim/internal/expr"
	"slimsim/internal/network"
)

// BuildResult carries the explicit chain together with exploration
// statistics (reported in the Table I benchmark).
type BuildResult struct {
	// Chain is the tangible-state CTMC.
	Chain *CTMC
	// Explored counts all discrete states visited, including vanishing
	// ones.
	Explored int
	// Vanishing counts immediate states eliminated by maximal progress.
	Vanishing int
}

// OverflowError reports that exploration hit the maxStates cap. It carries
// the exploration statistics at the moment of the overflow plus a prefix of
// the offending state key, so callers (slimcheck in particular) can tell a
// genuinely too-large model apart from an engine failure and suggest a
// remedy.
type OverflowError struct {
	// Limit is the configured tangible-state cap.
	Limit int
	// Explored and Vanishing are the exploration counters when the cap
	// was hit.
	Explored, Vanishing int
	// KeyPrefix is a prefix of the canonical key of the state that did
	// not fit.
	KeyPrefix string
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("ctmc: state space exceeds %d tangible states (%d states explored, %d vanishing eliminated; overflowed at state %s...)",
		e.Limit, e.Explored, e.Vanishing, e.KeyPrefix)
}

// BuildOptions tunes Build. The zero value reproduces the plain explicit
// construction.
type BuildOptions struct {
	// Canon, when non-nil, rewrites every discovered state to a
	// canonical representative of its equivalence class before it is
	// keyed, so the chain is built over the quotient directly. The
	// caller must guarantee the classes form a strong bisimulation that
	// respects the goal labeling (internal/symmetry certifies this for
	// replica-permutation classes); Build itself treats the hook as
	// opaque.
	Canon func(*network.State)
}

// Build unfolds the network's reachable discrete state space into a CTMC.
//
// The untimed (Markovian) fragment of SLIM is required: the model may not
// contain clock or continuous variables, so every guard is delay-constant
// and every state is either *vanishing* (some guarded move enabled — it
// fires immediately under maximal progress, chosen uniformly) or *tangible*
// (only Markovian moves, raced by rate) or absorbing. goal labels the
// target states of the reachability property. maxStates bounds the
// exploration; on overflow the error is an *OverflowError.
func Build(rt *network.Runtime, goal expr.Expr, maxStates int) (*BuildResult, error) {
	return BuildWith(rt, goal, maxStates, BuildOptions{})
}

// BuildWith is Build with options; see BuildOptions.
func BuildWith(rt *network.Runtime, goal expr.Expr, maxStates int, opts BuildOptions) (*BuildResult, error) {
	for _, d := range rt.Net().Vars {
		if d.Type.Timed() {
			return nil, fmt.Errorf("ctmc: model has timed variable %s; the CTMC flow handles only the untimed fragment", d.Name)
		}
	}
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	if err := expr.CheckBool(goal, rt.Net().DeclMap()); err != nil {
		return nil, fmt.Errorf("ctmc: goal: %w", err)
	}

	b := &builder{
		rt:        rt,
		sc:        rt.NewScratch(0),
		kinds:     slotKinds(rt),
		cur:       rt.NewState(),
		probe:     rt.NewState(),
		goal:      expr.CompileBool(goal),
		maxStates: maxStates,
		canon:     opts.Canon,
		index:     make(map[string]int),
		resolved:  make(map[string][]weighted),
		onPath:    make(map[string]bool),
		rateAcc:   make(map[int]float64),
	}
	init := rt.NewState()
	if err := b.sc.InitialStateInto(&init); err != nil {
		return nil, err
	}
	if b.canon != nil {
		b.canon(&init)
	}
	initDist, err := b.resolve(&init, 0)
	if err != nil {
		return nil, err
	}
	initial := make(map[int]float64)
	for _, w := range initDist {
		idx, err := b.tangible(w)
		if err != nil {
			return nil, err
		}
		initial[idx] += w.p
	}
	// BFS over tangible states. Goal states are absorbing for bounded
	// reachability (uniformization treats them so), hence they are not
	// expanded — the pruning MRMC applies when checking a single
	// property.
	for head := 0; head < len(b.states); head++ {
		if b.goalFlags[head] {
			continue
		}
		if err := b.expand(head); err != nil {
			return nil, err
		}
	}

	n := len(b.states)
	chain := &CTMC{
		Edges:   b.edges,
		Initial: make([]float64, n),
		Goal:    b.goalFlags,
	}
	for idx, p := range initial {
		chain.Initial[idx] = p
	}
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	return &BuildResult{Chain: chain, Explored: b.explored, Vanishing: b.vanishing}, nil
}

// weighted is a probability-weighted tangible state, by compact key.
type weighted struct {
	key string
	p   float64
}

// builder is the state of one exploration. All successor computation runs
// through one builder-owned network.Scratch: moves come from its move
// cache, guards and the goal are evaluated through its compiled programs,
// and successors are written into per-depth scratch states. A state is
// kept only as its compact key and decoded back into a scratch state when
// it is expanded, so the only per-state allocations left are its key, its
// resolved distribution and its edges.
type builder struct {
	rt        *network.Runtime
	sc        *network.Scratch
	kinds     []expr.Kind // declared kind per variable slot, for decodeStateKey
	goal      expr.BoolCode
	maxStates int
	canon     func(*network.State)

	states    []string       // compact keys of the tangible states, by index
	index     map[string]int // compact state key -> tangible index
	goalFlags []bool         // per tangible state
	edges     [][]Edge
	resolved  map[string][]weighted // memoized resolution by compact key
	keyBuf    []byte                // scratch for appendStateKey
	onPath    map[string]bool       // immediate-cycle detection, reused across resolve calls
	frames    []*frame              // successor scratch per resolve depth
	cur       network.State         // the tangible state expand is expanding
	probe     network.State         // a decoded state for goal evaluation and error text
	rateAcc   map[int]float64       // per-expand edge merging scratch
	targets   []int                 // sorted rateAcc keys scratch
	explored  int
	vanishing int
}

// frame is the scratch of one recursion depth: the successor state being
// resolved below it and the enabled guarded moves being fired from it.
// Frame 0 serves expand and the top-level resolve; a resolve at depth d
// writes its successors into frame d and recurses at depth d+1.
type frame struct {
	succ    network.State
	enabled []int // indices into the state's CachedMoves.Guarded
}

// frame returns the scratch of depth d, allocating it on first use.
func (b *builder) frame(d int) *frame {
	for len(b.frames) <= d {
		b.frames = append(b.frames, &frame{succ: b.rt.NewState()})
	}
	return b.frames[d]
}

// tangible interns the tangible state of w and returns its index.
func (b *builder) tangible(w weighted) (int, error) {
	if idx, ok := b.index[w.key]; ok {
		return idx, nil
	}
	if err := decodeStateKey(&b.probe, w.key, b.kinds); err != nil {
		return 0, err
	}
	if len(b.states) >= b.maxStates {
		prefix := b.probe.Key()
		if len(prefix) > 48 {
			prefix = prefix[:48]
		}
		return 0, &OverflowError{
			Limit:     b.maxStates,
			Explored:  b.explored,
			Vanishing: b.vanishing,
			KeyPrefix: prefix,
		}
	}
	idx := len(b.states)
	b.states = append(b.states, w.key)
	b.index[w.key] = idx
	b.edges = append(b.edges, nil)
	g, err := b.goal(b.sc.Env(&b.probe))
	if err != nil {
		return 0, fmt.Errorf("ctmc: evaluating goal: %w", err)
	}
	b.goalFlags = append(b.goalFlags, g)
	return idx, nil
}

// resolve eliminates vanishing states: starting from st, follow immediate
// transitions (uniformly probable, maximal progress) until tangible states
// are reached, which it returns in the order they are first reached. st
// must already be canonical when a Canon hook is set; depth is the frame
// its successors are written into. The builder-owned onPath set detects
// cycles of immediate transitions; each recursion removes its key on
// unwind, so the set is empty again after every top-level call and never
// reallocated.
func (b *builder) resolve(st *network.State, depth int) ([]weighted, error) {
	b.keyBuf = appendStateKey(b.keyBuf[:0], st)
	if cached, ok := b.resolved[string(b.keyBuf)]; ok {
		return cached, nil
	}
	if b.onPath[string(b.keyBuf)] {
		return nil, fmt.Errorf("ctmc: cycle of immediate transitions through state %s", st.Key())
	}
	// Materialize the key once: it outlives the recursive calls below,
	// which clobber the scratch buffer, and it is the key the state is
	// interned under if it is tangible.
	key := string(b.keyBuf)
	b.explored++
	cm := b.sc.Moves(st)
	f := b.frame(depth)
	f.enabled = f.enabled[:0]
	for i := range cm.Guarded {
		ok, err := b.sc.EnabledAt(st, &cm.Guarded[i])
		if err != nil {
			return nil, err
		}
		if ok {
			f.enabled = append(f.enabled, i)
		}
	}
	if len(f.enabled) == 0 {
		out := []weighted{{key: key, p: 1}}
		b.resolved[key] = out
		return out, nil
	}
	b.vanishing++
	b.onPath[key] = true
	defer delete(b.onPath, key)

	var out []weighted
	share := 1 / float64(len(f.enabled))
	for _, i := range f.enabled {
		if err := b.sc.ApplyInto(&f.succ, st, &cm.Guarded[i]); err != nil {
			return nil, err
		}
		if b.canon != nil {
			b.canon(&f.succ)
		}
		sub, err := b.resolve(&f.succ, depth+1)
		if err != nil {
			return nil, err
		}
	merge:
		for _, w := range sub {
			for j := range out {
				if out[j].key == w.key {
					out[j].p += share * w.p
					continue merge
				}
			}
			out = append(out, weighted{key: w.key, p: share * w.p})
		}
	}
	b.resolved[key] = out
	return out, nil
}

// expand adds the Markovian edges of tangible state idx, exploring
// successors. Parallel edges into the same target are merged (rates add in
// a CTMC race); under a Canon hook this merging is what produces the
// counter-abstraction's scaled rates — k interchangeable replicas firing
// the same transition collapse into one edge of k times the rate. The
// state's guards need no second look: resolve found none enabled.
func (b *builder) expand(idx int) error {
	st := &b.cur
	if err := decodeStateKey(st, b.states[idx], b.kinds); err != nil {
		return err
	}
	cm := b.sc.Moves(st)
	f := b.frame(0)
	for i := range cm.Markovian {
		m := &cm.Markovian[i]
		if err := b.sc.ApplyInto(&f.succ, st, m); err != nil {
			return err
		}
		if b.canon != nil {
			b.canon(&f.succ)
		}
		dist, err := b.resolve(&f.succ, 1)
		if err != nil {
			return err
		}
		for _, w := range dist {
			tIdx, err := b.tangible(w)
			if err != nil {
				return err
			}
			b.rateAcc[tIdx] += m.Rate * w.p
		}
	}
	b.targets = b.targets[:0]
	for t := range b.rateAcc {
		b.targets = append(b.targets, t)
	}
	sort.Ints(b.targets)
	b.edges[idx] = make([]Edge, 0, len(b.targets))
	for _, t := range b.targets {
		b.edges[idx] = append(b.edges[idx], Edge{To: t, Rate: b.rateAcc[t]})
		delete(b.rateAcc, t)
	}
	return nil
}
