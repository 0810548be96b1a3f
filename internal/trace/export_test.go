package trace

// MarshalAny exposes marshalAny to the external fuzz tests, which need
// v1 captures as seeds and as the canonical re-encoding of v1 input.
var MarshalAny = marshalAny
