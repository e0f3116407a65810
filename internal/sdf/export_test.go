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
