package ctmc_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"slimsim/internal/ctmc"
	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/sta"
)

// TestCompactKeyPartitionsLikeTextKey checks the builder's compact key
// against the decimal text key on every state each reference exploration
// discovers: two states get equal compact keys exactly when they get equal
// text keys, and every compact key decodes back to its state. The Canon
// hook sees every discovered state before it is keyed (canonicalized first
// on the quotient cases), and the number of distinct states recorded must
// equal the build's Explored count.
func TestCompactKeyPartitionsLikeTextKey(t *testing.T) {
	for _, c := range buildCases(t) {
		var canon func(*network.State)
		if c.red != nil {
			canon = c.red.NewCanonicalizer().Canon
		}
		byText := make(map[string]string)
		byKey := make(map[string]string)
		kinds := ctmc.SlotKinds(c.rt)
		decoded := c.rt.NewState()
		var buf []byte
		failures := 0
		record := func(st *network.State) {
			if canon != nil {
				canon(st)
			}
			text := st.Key()
			buf = ctmc.AppendStateKey(buf[:0], st)
			if k, ok := byText[text]; ok && k != string(buf) {
				failures++
			}
			if x, ok := byKey[string(buf)]; ok && x != text {
				failures++
			}
			if err := ctmc.DecodeStateKey(&decoded, string(buf), kinds); err != nil || decoded.Key() != text {
				failures++
			}
			byText[text] = string(buf)
			byKey[string(buf)] = text
		}
		res, err := ctmc.BuildWith(c.rt, c.goal, corpusMaxStates, ctmc.BuildOptions{Canon: record})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if failures > 0 {
			t.Errorf("%s: compact and text keys disagree on %d states", c.name, failures)
		}
		if len(byText) != len(byKey) || len(byText) != res.Explored {
			t.Errorf("%s: %d text keys, %d compact keys, %d states explored", c.name, len(byText), len(byKey), res.Explored)
		}
	}
}

// TestCompactKeyRandomStates drives the partition property on random
// states over a small value domain, so repeated states are frequent: one
// slot of each kind, locations across the one-byte uvarint boundary,
// negative integers, infinities and both signed zeros.
func TestCompactKeyRandomStates(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	reals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e300, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	random := func() network.State {
		return network.State{
			Locs: []sta.LocID{sta.LocID(r.Intn(3)), sta.LocID(r.Intn(200))},
			Vals: []expr.Value{
				expr.BoolVal(r.Intn(2) == 0),
				expr.IntVal(int64(r.Intn(300) - 150)),
				expr.RealVal(reals[r.Intn(len(reals))]),
			},
		}
	}
	byText := make(map[string]string)
	byKey := make(map[string]string)
	kinds := []expr.Kind{expr.KindBool, expr.KindInt, expr.KindReal}
	decoded := random()
	for i := 0; i < 20000; i++ {
		st := random()
		text, key := st.Key(), string(ctmc.AppendStateKey(nil, &st))
		if err := ctmc.DecodeStateKey(&decoded, key, kinds); err != nil || decoded.Key() != text {
			t.Fatalf("%q decodes to %q (%v)", text, decoded.Key(), err)
		}
		if k, ok := byText[text]; ok && k != key {
			t.Fatalf("text key %q maps to two compact keys", text)
		}
		if x, ok := byKey[key]; ok && x != text {
			t.Fatalf("compact key of %q equals that of %q", text, x)
		}
		byText[text], byKey[key] = key, text
	}
	if len(byText) == 20000 {
		t.Fatal("no repeated states drawn: the domain is too large to exercise equality")
	}
}

// TestDecodeStateKeyRejectsMalformed: a key cut short or carrying extra
// bytes is an engine-internal error, never a silently different state.
func TestDecodeStateKeyRejectsMalformed(t *testing.T) {
	st := network.State{
		Locs: []sta.LocID{300},
		Vals: []expr.Value{expr.BoolVal(true), expr.IntVal(-7), expr.RealVal(2.5)},
	}
	kinds := []expr.Kind{expr.KindBool, expr.KindInt, expr.KindReal}
	key := string(ctmc.AppendStateKey(nil, &st))
	dst := network.State{Locs: make([]sta.LocID, 1), Vals: make([]expr.Value, 3)}
	for cut := 0; cut < len(key); cut++ {
		if err := ctmc.DecodeStateKey(&dst, key[:cut], kinds); !errors.Is(err, network.ErrInternal) {
			t.Errorf("key cut to %d of %d bytes: got %v, want an internal error", cut, len(key), err)
		}
	}
	if err := ctmc.DecodeStateKey(&dst, key+"\x00", kinds); !errors.Is(err, network.ErrInternal) {
		t.Errorf("key with a trailing byte: got %v, want an internal error", err)
	}
	if err := ctmc.DecodeStateKey(&dst, key, kinds); err != nil || dst.Key() != st.Key() {
		t.Errorf("decoded %s (%v), want %s", dst.Key(), err, st.Key())
	}
}
