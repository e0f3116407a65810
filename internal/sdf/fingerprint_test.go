package sdf

import "testing"

// identityCases is the sensitivity table for the graph's structural
// identity: one mutation per field the canonical walk covers. Each case
// builds specGraph's twin with exactly that field changed.
var identityCases = []struct {
	name   string
	mutate func(spec *GraphSpec)
}{
	{"graph name", func(s *GraphSpec) { s.Name = "spec2" }},
	{"filter name", func(s *GraphSpec) { s.Nodes[1].Filter.Name = "win2" }},
	{"filter kind", func(s *GraphSpec) { s.Nodes[2].Filter.Kind = int(KindSplitter) }},
	{"pipe", func(s *GraphSpec) { s.Nodes[2].Pipe = 7 }},
	{"ops", func(s *GraphSpec) { s.Nodes[0].Filter.Ops++ }},
	{"zero copy", func(s *GraphSpec) { s.Nodes[2].Filter.ZeroCopy = false }},
	{"pop and push rate", func(s *GraphSpec) {
		// Rates live on the ports; the graph stays balanced if both ends
		// of edge 1 (win -> zc) move together.
		s.Nodes[1].Filter.Outputs = []int{4}
		s.Nodes[2].Filter.Inputs = []PortSpec{{Pop: 4, Peek: 4}}
		s.Nodes[2].Filter.Outputs = []int{4}
		s.Nodes[3].Filter.Inputs = []PortSpec{{Pop: 12, Peek: 12}}
	}},
	{"peek", func(s *GraphSpec) { s.Nodes[1].Filter.Inputs = []PortSpec{{Pop: 1, Peek: 3}} }},
	{"filter init state", func(s *GraphSpec) { s.Nodes[1].Filter.Init = []Token{1, 3} }},
	{"filter init length", func(s *GraphSpec) { s.Nodes[1].Filter.Init = []Token{1, 2, 0} }},
	{"edge delay tokens", func(s *GraphSpec) { s.Edges[0].Initial = []Token{9, 8, 6} }},
	{"edge delay length", func(s *GraphSpec) { s.Edges[0].Initial = []Token{9, 8, 7, 0} }},
}

// mutated returns specGraph's wire form with one identityCases mutation
// applied, and its twin rebuilt through ImportGraph so it is a valid graph.
func mutated(t *testing.T, mutate func(*GraphSpec)) (GraphSpec, *Graph) {
	t.Helper()
	spec := ExportGraph(specGraph(t))
	mutate(&spec)
	g, err := ImportGraph(spec)
	if err != nil {
		t.Fatalf("mutation does not import: %v", err)
	}
	return spec, g
}

// TestIdentitySensitivity: Fingerprint and Digest hash one canonical walk
// of the graph and SpecDigest the same walk of its wire form, so all three
// must move with every field the walk covers; Digest and SpecDigest must
// agree on every case, structural twins must agree, and a second
// (memoized) call must answer the same.
func TestIdentitySensitivity(t *testing.T) {
	base := specGraph(t)
	spec, twin := mutated(t, func(*GraphSpec) {})
	if base.Fingerprint() != twin.Fingerprint() || base.Digest() != twin.Digest() {
		t.Fatal("structural twins disagree on identity")
	}
	if base.Fingerprint() != base.Fingerprint() || base.Digest() != base.Digest() {
		t.Fatal("memoized identity differs from the first walk")
	}
	if SpecDigest(&spec) != base.Digest() {
		t.Fatal("a graph and its wire form disagree on identity")
	}
	seen := map[[32]byte]string{base.Digest(): "base"}
	for _, tc := range identityCases {
		spec, g := mutated(t, tc.mutate)
		if g.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: Fingerprint did not change", tc.name)
		}
		if prev, dup := seen[g.Digest()]; dup {
			t.Errorf("%s: Digest equals that of %s", tc.name, prev)
		}
		if SpecDigest(&spec) != g.Digest() {
			t.Errorf("%s: SpecDigest of the wire form differs from the Digest of the graph built from it", tc.name)
		}
		seen[g.Digest()] = tc.name
	}
}

// TestSpecDigestNilAndEmptyAgree: the wire form omits empty lists, so a
// decoder may hand SpecDigest nil where an exporter handed it an empty
// slice; the two are one structure and must digest the same.
func TestSpecDigestNilAndEmptyAgree(t *testing.T) {
	spec := ExportGraph(specGraph(t))
	withNil, withEmpty := spec, spec
	withNil.Nodes = append([]NodeSpec(nil), spec.Nodes...)
	withEmpty.Nodes = append([]NodeSpec(nil), spec.Nodes...)
	withNil.Edges = append([]EdgeSpec(nil), spec.Edges...)
	withEmpty.Edges = append([]EdgeSpec(nil), spec.Edges...)
	// The source has no inputs and no state, the sink no outputs, edge 1 no
	// delay tokens.
	src, sink := 0, len(spec.Nodes)-1
	withNil.Nodes[src].Filter.Inputs, withEmpty.Nodes[src].Filter.Inputs = nil, []PortSpec{}
	withNil.Nodes[src].Filter.Init, withEmpty.Nodes[src].Filter.Init = nil, []Token{}
	withNil.Nodes[sink].Filter.Outputs, withEmpty.Nodes[sink].Filter.Outputs = nil, []int{}
	withNil.Edges[1].Initial, withEmpty.Edges[1].Initial = nil, []Token{}
	if SpecDigest(&withNil) != SpecDigest(&withEmpty) {
		t.Fatal("nil and empty lists digest differently")
	}
	if SpecDigest(&withNil) != specGraph(t).Digest() {
		t.Fatal("dropping empty lists changed the identity")
	}
}

// TestIdentityTracksBuilder: the memo is guarded by the graph's shape, so a
// builder that fingerprints a half-built graph does not freeze its identity.
func TestIdentityTracksBuilder(t *testing.T) {
	b := NewBuilder("grow")
	src := &Filter{Name: "src", Outputs: []int{1}, Ops: 1, Kind: KindSource}
	sink := &Filter{Name: "sink", Inputs: []InRate{{Pop: 1, Peek: 1}}, Ops: 1, Kind: KindSink}
	n0 := b.AddNode(src, -1)
	early := b.g.Fingerprint()
	n1 := b.AddNode(sink, -1)
	b.Connect(n0, 0, n1, 0)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() == early {
		t.Fatal("identity memoized on a half-built graph survived its completion")
	}
}
