package ctmc

// AppendStateKey, DecodeStateKey and SlotKinds expose the builder's
// compact state key to the external tests.
var (
	AppendStateKey = appendStateKey
	DecodeStateKey = decodeStateKey
	SlotKinds      = slotKinds
)
