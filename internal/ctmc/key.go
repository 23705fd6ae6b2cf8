package ctmc

import (
	"encoding/binary"
	"fmt"
	"math"

	"slimsim/internal/expr"
	"slimsim/internal/network"
	"slimsim/internal/sta"
)

// appendStateKey appends the builder's compact key of st's discrete part
// (locations and variable values, not time) to buf: each location as a
// uvarint, each Boolean as one byte, each integer as a zigzag varint and
// each real as the 8 bytes of math.Float64bits.
//
// The key carries no kind tags and no separators, yet it partitions states
// exactly as the decimal text key of State.AppendKey does:
//   - Every slot's kind is fixed for the whole exploration: sta.Validate
//     checks each Init against its declared type, and every effect and flow
//     result passes Type.Admits before it is stored. With the slot kinds
//     fixed, every field is self-delimiting, so the concatenation is
//     prefix-free and decodes to one state only.
//   - Reals are never NaN (Type.Admits rejects NaN), so Float64bits is
//     injective on them, as 'g', -1 formatting is; both encodings tell −0
//     from 0.
//
// The text key is still what errors print (State.Key), never this one.
func appendStateKey(buf []byte, st *network.State) []byte {
	for _, l := range st.Locs {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	for _, v := range st.Vals {
		switch v.Kind() {
		case expr.KindBool:
			if v.Bool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case expr.KindInt:
			buf = binary.AppendVarint(buf, v.Int())
		case expr.KindReal:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Real()))
		}
	}
	return buf
}

// slotKinds returns each variable slot's declared kind, the kinds
// decodeStateKey reads a key with.
func slotKinds(rt *network.Runtime) []expr.Kind {
	kinds := make([]expr.Kind, len(rt.Net().Vars))
	for i := range kinds {
		kinds[i] = rt.Net().Vars[i].Type.Kind
	}
	return kinds
}

// decodeStateKey overwrites the discrete part of st, which must have the
// network's slot counts, with the state whose compact key is key. kinds
// holds each variable slot's declared kind, which by the argument above is
// the kind of every value the slot ever holds. Time is left untouched: in
// the untimed fragment the builder handles it is always 0. A key that does
// not decode exactly is an engine invariant violation (network.ErrInternal).
func decodeStateKey(st *network.State, key string, kinds []expr.Kind) error {
	pos := 0
	uvarint := func() (uint64, bool) {
		var x uint64
		for shift := uint(0); pos < len(key) && shift < 64; shift += 7 {
			c := key[pos]
			pos++
			x |= uint64(c&0x7f) << shift
			if c < 0x80 {
				return x, true
			}
		}
		return 0, false
	}
	for i := range st.Locs {
		l, ok := uvarint()
		if !ok {
			return network.Internal(fmt.Errorf("ctmc: malformed state key at location %d", i))
		}
		st.Locs[i] = sta.LocID(l)
	}
	for i, kind := range kinds {
		switch kind {
		case expr.KindBool:
			if pos >= len(key) {
				return network.Internal(fmt.Errorf("ctmc: malformed state key at variable %d", i))
			}
			st.Vals[i] = expr.BoolVal(key[pos] != 0)
			pos++
		case expr.KindInt:
			ux, ok := uvarint()
			if !ok {
				return network.Internal(fmt.Errorf("ctmc: malformed state key at variable %d", i))
			}
			x := int64(ux >> 1)
			if ux&1 != 0 {
				x = ^x
			}
			st.Vals[i] = expr.IntVal(x)
		case expr.KindReal:
			if pos+8 > len(key) {
				return network.Internal(fmt.Errorf("ctmc: malformed state key at variable %d", i))
			}
			st.Vals[i] = expr.RealVal(math.Float64frombits(binary.LittleEndian.Uint64([]byte(key[pos : pos+8]))))
			pos += 8
		}
	}
	if pos != len(key) {
		return network.Internal(fmt.Errorf("ctmc: state key has %d trailing bytes", len(key)-pos))
	}
	return nil
}
