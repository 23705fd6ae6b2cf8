// Package bisim implements CTMC lumping by partition refinement — the role
// the Sigref library plays in the paper's baseline tool-chain (§IV): the
// explicit chain produced by state-space generation is reduced to its
// bisimulation quotient before numerical analysis, preserving time-bounded
// reachability probabilities.
//
// The algorithm is the classic rate-signature refinement: start from the
// partition induced by the goal labeling, then repeatedly split blocks
// whose states have different cumulative rates into some block, until
// stable. The result is ordinary (strong) lumpability, which suffices for
// the transient measures checked here.
package bisim

import (
	"fmt"
	"math"
	"sort"

	"slimsim/internal/ctmc"
)

// Result is the quotient chain together with the state-to-block mapping.
type Result struct {
	// Quotient is the lumped CTMC.
	Quotient *ctmc.CTMC
	// BlockOf maps each original state to its block index.
	BlockOf []int
	// Blocks is the number of equivalence classes.
	Blocks int
}

// Lump computes the coarsest ordinary-lumpability partition of c that
// respects the goal labeling, and returns the quotient chain.
func Lump(c *ctmc.CTMC) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.NumStates()
	if n == 0 {
		return nil, fmt.Errorf("bisim: empty chain")
	}

	// Initial partition: goal vs non-goal.
	blockOf := make([]int, n)
	for s := 0; s < n; s++ {
		if c.Goal[s] {
			blockOf[s] = 1
		}
	}
	numBlocks := 2
	// Degenerate labelings still need at least one block.
	if allSame(c.Goal) {
		for s := range blockOf {
			blockOf[s] = 0
		}
		numBlocks = 1
	}

	// Refine until stable. Each iteration computes every state's
	// signature — its old block plus the sorted (target block, cumulative
	// rate) pairs — as a numeric slice in one shared arena, hashes it
	// (FNV-1a over the raw words), and assigns new block ids by exact
	// comparison within hash buckets. Rates enter the signature quantized
	// to 40 significant mantissa bits (~12 decimal digits, matching the
	// "%.12g" string rendering this replaced): cumulative rates of
	// bisimilar states can disagree in the final ulps because the
	// explicit chain lists their edges in different orders, and comparing
	// them exactly would shatter the blocks. The difftest exact tier
	// bounds the error this tolerance can introduce.
	var (
		entries    []sigEntry // signature arena, reused across iterations
		starts     = make([]int32, n+1)
		hashes     = make([]uint64, n)
		newBlockOf = make([]int, n)
		acc        = make(map[int]float64) // per-state block→rate scratch
		blocks     []int                   // sorted acc keys scratch
	)
	for {
		entries = entries[:0]
		for s := 0; s < n; s++ {
			starts[s] = int32(len(entries))
			for _, e := range c.Edges[s] {
				acc[blockOf[e.To]] += e.Rate
			}
			blocks = blocks[:0]
			for b := range acc {
				blocks = append(blocks, b)
			}
			sort.Ints(blocks)
			h := fnvMix(fnvOffset, uint64(blockOf[s]))
			for _, b := range blocks {
				mant, exp := quantize(acc[b])
				entries = append(entries, sigEntry{block: int32(b), exp: int32(exp), mant: mant})
				h = fnvMix(h, uint64(b))
				h = fnvMix(h, uint64(mant))
				h = fnvMix(h, uint64(int64(exp)))
				delete(acc, b)
			}
			hashes[s] = h
		}
		starts[n] = int32(len(entries))

		bucket := make(map[uint64][]int, numBlocks)
		nextID := 0
		for s := 0; s < n; s++ {
			id := -1
			for _, r := range bucket[hashes[s]] {
				if blockOf[s] == blockOf[r] && sigEqual(entries, starts, s, r) {
					id = newBlockOf[r]
					break
				}
			}
			if id < 0 {
				id = nextID
				nextID++
				bucket[hashes[s]] = append(bucket[hashes[s]], s)
			}
			newBlockOf[s] = id
		}
		stable := nextID == numBlocks
		copy(blockOf, newBlockOf)
		numBlocks = nextID
		if stable {
			break
		}
	}

	// Build the quotient: rates from a representative of each block.
	q := &ctmc.CTMC{
		Edges:   make([][]ctmc.Edge, numBlocks),
		Initial: make([]float64, numBlocks),
		Goal:    make([]bool, numBlocks),
	}
	repr := make([]int, numBlocks)
	for i := range repr {
		repr[i] = -1
	}
	for s := 0; s < n; s++ {
		b := blockOf[s]
		q.Initial[b] += c.Initial[s]
		q.Goal[b] = c.Goal[s]
		if repr[b] == -1 {
			repr[b] = s
		}
	}
	for b := 0; b < numBlocks; b++ {
		acc := make(map[int]float64)
		for _, e := range c.Edges[repr[b]] {
			acc[blockOf[e.To]] += e.Rate
		}
		targets := make([]int, 0, len(acc))
		for t := range acc {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			q.Edges[b] = append(q.Edges[b], ctmc.Edge{To: t, Rate: acc[t]})
		}
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("bisim: quotient invalid: %w", err)
	}
	return &Result{Quotient: q, BlockOf: blockOf, Blocks: numBlocks}, nil
}

// sigEntry is one (target block, cumulative rate) component of a state's
// refinement signature, with the rate in quantized mantissa/exponent form.
type sigEntry struct {
	block, exp int32
	mant       int64
}

// quantize rounds r to 40 significant mantissa bits. Signatures compare
// rates at this relative precision so that ulp-level noise from edge
// ordering cannot split bisimilar states. A mantissa just below 1 can round
// up to 2^40; it is renormalized to the form the next power of two takes
// (4-ε and 4 must quantize equal).
func quantize(r float64) (int64, int) {
	mant, exp := math.Frexp(r)
	m := int64(math.Round(mant * (1 << 40)))
	if m == 1<<40 || m == -(1<<40) {
		return m / 2, exp + 1
	}
	return m, exp
}

// FNV-1a constants, applied word-wise rather than byte-wise: the mix only
// routes states into buckets, equality is always reverified exactly.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// sigEqual reports whether states s and r have identical signature slices
// in the shared arena.
func sigEqual(entries []sigEntry, starts []int32, s, r int) bool {
	ss, se := starts[s], starts[s+1]
	rs, re := starts[r], starts[r+1]
	if se-ss != re-rs {
		return false
	}
	for i := int32(0); i < se-ss; i++ {
		if entries[ss+i] != entries[rs+i] {
			return false
		}
	}
	return true
}

func allSame(xs []bool) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
