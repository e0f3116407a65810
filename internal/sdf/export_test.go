package sdf

import "encoding/json"

// DecodeReference decodes data as json.Unmarshal decodes a GraphSpec that
// has no decoder of its own: the referee of UnmarshalJSON.
func DecodeReference(data []byte, g *GraphSpec) error {
	return json.Unmarshal(data, (*graphJSON)(g))
}

// HandOvers runs decode and returns how many nodes and edges it read the
// any-order way.
func HandOvers(decode func()) (n int) {
	handOverHook = func() { n++ }
	defer func() { handOverHook = nil }()
	decode()
	return n
}

// Intersects reports whether s and t share a member: the two-sided
// convexity referee's test, which production no longer needs.
func (s NodeSet) Intersects(t NodeSet) bool {
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}
