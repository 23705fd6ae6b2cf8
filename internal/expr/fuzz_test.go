package expr

import (
	"testing"

	"slimsim/internal/intervals"
	"slimsim/internal/rng"
)

// FuzzWindowTimeInvariant fuzzes the timed/untimed classification of window
// evaluation. Each input seeds a random expression over four variables, a
// mask naming the timed ones, and an environment in which only timed
// variables have a rate. Every subtree that reads no timed variable must
// window to exactly its Boolean value — CompileWindow(sub) and the reference
// refWindow(sub) equal the full/empty set of CompileBool(sub), with identical
// errors — and the compiled window of the whole tree must equal the
// reference one, computed both with fresh sets and through one arena reused
// across inputs.
func FuzzWindowTimeInvariant(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	var arena intervals.Arena
	f.Fuzz(func(t *testing.T, seed uint64, mask uint8) {
		timed := func(id VarID) bool { return mask>>(id&7)&1 == 1 }
		r := rng.New(seed)
		e := exprGen(r, 1+r.IntN(5))
		env := genEnv(r)
		for id := range env.rates {
			if !timed(id) {
				delete(env.rates, id)
			}
		}
		Walk(e, func(sub Expr) {
			if readsTimed(sub, timed) {
				return
			}
			want, wantErr := boolWindow(CompileBool(sub)(env))
			got, gotErr := CompileWindow(sub, timed)(env, nil)
			if !sameErr(wantErr, gotErr) || (wantErr == nil && !want.Equal(got)) {
				t.Fatalf("time-invariant %s: window (%v, %v), Boolean (%v, %v)", sub, got, gotErr, want, wantErr)
			}
			got, gotErr = refWindow(sub, env, timed)
			if !sameErr(wantErr, gotErr) || (wantErr == nil && !want.Equal(got)) {
				t.Fatalf("time-invariant %s: reference window (%v, %v), Boolean (%v, %v)", sub, got, gotErr, want, wantErr)
			}
		})
		want, wantErr := refWindow(e, env, timed)
		code := CompileWindow(e, timed)
		got, gotErr := code(env, nil)
		if !sameErr(wantErr, gotErr) || (wantErr == nil && !want.Equal(got)) {
			t.Fatalf("CompileWindow disagrees on %s:\n eval (%v, %v)\n code (%v, %v)", e, want, wantErr, got, gotErr)
		}
		arena.Reset()
		got, gotErr = code(env, &arena)
		if !sameErr(wantErr, gotErr) || (wantErr == nil && !want.Equal(got)) {
			t.Fatalf("CompileWindow in an arena disagrees on %s:\n eval (%v, %v)\n code (%v, %v)", e, want, wantErr, got, gotErr)
		}
	})
}
