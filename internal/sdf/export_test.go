package sdf

import "encoding/json"

// DecodeReference decodes data as json.Unmarshal decodes a GraphSpec that
// has no decoder of its own: the referee of UnmarshalJSON.
func DecodeReference(data []byte, g *GraphSpec) error {
	return json.Unmarshal(data, (*graphJSON)(g))
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
