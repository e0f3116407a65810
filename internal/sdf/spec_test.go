package sdf

import (
	"slices"
	"testing"
)

// specGraph builds a graph exercising every serialized feature: multi-rate
// edges, peeking (sliding window) with priming delay tokens, filter state,
// zero-copy flags and pipeline grouping.
func specGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("spec")
	src := &Filter{Name: "src", Outputs: []int{3}, Ops: 7, Kind: KindSource}
	win := &Filter{Name: "win", Inputs: []InRate{{Pop: 1, Peek: 4}}, Outputs: []int{2}, Ops: 11,
		Init: []Token{1, 2}}
	zc := &Filter{Name: "zc", Inputs: []InRate{{Pop: 2, Peek: 2}}, Outputs: []int{2}, Ops: 1, ZeroCopy: true}
	sink := &Filter{Name: "sink", Inputs: []InRate{{Pop: 6, Peek: 6}}, Ops: 5, Kind: KindSink}
	n0 := b.AddNode(src, 0)
	n1 := b.AddNode(win, 0)
	n2 := b.AddNode(zc, -1)
	n3 := b.AddNode(sink, 1)
	b.ConnectDelayed(n0, 0, n1, 0, []Token{9, 8, 7})
	b.Connect(n1, 0, n2, 0)
	b.Connect(n2, 0, n3, 0)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphSpecRoundTripPreservesFingerprint(t *testing.T) {
	g := specGraph(t)
	twin, err := ImportGraph(ExportGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != twin.Fingerprint() {
		t.Fatalf("fingerprint %016x != twin %016x", g.Fingerprint(), twin.Fingerprint())
	}
	if twin.NumNodes() != g.NumNodes() || twin.NumEdges() != g.NumEdges() {
		t.Fatalf("twin shape %d/%d vs %d/%d", twin.NumNodes(), twin.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, n := range g.Nodes {
		if g.Rep(n.ID) != twin.Rep(n.ID) {
			t.Errorf("node %d: rep %d != twin %d", n.ID, g.Rep(n.ID), twin.Rep(n.ID))
		}
		if twin.Nodes[n.ID].Pipe != n.Pipe {
			t.Errorf("node %d: pipe differs", n.ID)
		}
	}
}

// TestImportGraphRejectsCorruptSpecs: an edge whose endpoint or port is
// out of range is rejected by ImportGraph, and SpecDigest — which runs on
// request bodies before anything validates them — walks it without
// panicking.
func TestImportGraphRejectsCorruptSpecs(t *testing.T) {
	base := ExportGraph(specGraph(t))
	n := len(base.Nodes)
	for _, tc := range []struct {
		name    string
		corrupt func(e *EdgeSpec)
	}{
		{"negative src", func(e *EdgeSpec) { e.Src = -1 }},
		{"src past the nodes", func(e *EdgeSpec) { e.Src = n }},
		{"negative dst", func(e *EdgeSpec) { e.Dst = -1 }},
		{"dst past the nodes", func(e *EdgeSpec) { e.Dst = 99 }},
		{"negative srcPort", func(e *EdgeSpec) { e.SrcPort = -1 }},
		{"srcPort past the outputs", func(e *EdgeSpec) { e.SrcPort = 5 }},
		{"negative dstPort", func(e *EdgeSpec) { e.DstPort = -1 }},
		{"dstPort past the inputs", func(e *EdgeSpec) { e.DstPort = 1 }},
	} {
		bad := base
		bad.Edges = append([]EdgeSpec(nil), base.Edges...)
		tc.corrupt(&bad.Edges[0])
		SpecDigest(&bad)
		if _, err := ImportGraph(bad); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
}

// TestNodeSetOf holds MembersOf, the wire node-list reader, to what the
// bitset reader it replaced accepted: any order, no out-of-range id, no
// duplicate.
func TestNodeSetOf(t *testing.T) {
	for _, ids := range [][]int{{1, 3, 5}, {5, 1, 3}} {
		members, err := MembersOf(8, ids)
		if err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		if !slices.Equal(members, []NodeID{1, 3, 5}) {
			t.Errorf("%v: members %v, want [1 3 5]", ids, members)
		}
	}
	if _, err := MembersOf(4, []int{4}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := MembersOf(4, []int{-1}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := MembersOf(4, []int{1, 1}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := MembersOf(4, []int{2, 0, 2}); err == nil {
		t.Error("unsorted duplicate id accepted")
	}
}
