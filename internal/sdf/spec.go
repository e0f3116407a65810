package sdf

import (
	"fmt"
	"slices"
)

// This file is the sdf package's explicit export/import form: a plain-data
// structural description of a graph that survives serialization. The spec
// determines every field Fingerprint hashes, so
// ImportGraph(ExportGraph(g)).Fingerprint() == g.Fingerprint().
//
// Work-function closures are not serializable; an imported graph is a
// structural twin — schedulable, estimatable and timing-simulable, but its
// filters carry no Work body, so it cannot run functionally. Callers that
// need functional execution supply the original graph (fingerprint-checked)
// instead.

// PortSpec is the wire form of one input port's rates.
type PortSpec struct {
	Pop  int `json:"pop"`
	Peek int `json:"peek"`
}

// FilterSpec is the wire form of a Filter (minus the work closure).
type FilterSpec struct {
	Name     string     `json:"name"`
	Kind     int        `json:"kind"`
	Ops      int64      `json:"ops"`
	ZeroCopy bool       `json:"zeroCopy,omitempty"`
	Inputs   []PortSpec `json:"inputs,omitempty"`
	Outputs  []int      `json:"outputs,omitempty"`
	Init     []Token    `json:"init,omitempty"`
}

// NodeSpec is the wire form of one placed node.
type NodeSpec struct {
	Filter FilterSpec `json:"filter"`
	Pipe   int        `json:"pipe"`
}

// EdgeSpec is the wire form of one channel; its rates are its two ports'.
type EdgeSpec struct {
	Src     int     `json:"src"`
	SrcPort int     `json:"srcPort"`
	Dst     int     `json:"dst"`
	DstPort int     `json:"dstPort"`
	Initial []Token `json:"initial,omitempty"`
}

// GraphSpec is the wire form of a whole graph.
type GraphSpec struct {
	Name  string     `json:"name"`
	Nodes []NodeSpec `json:"nodes"`
	Edges []EdgeSpec `json:"edges"`
}

// ExportGraph returns the graph's structural wire form.
func ExportGraph(g *Graph) GraphSpec {
	spec := GraphSpec{Name: g.Name}
	for _, n := range g.Nodes {
		f := n.Filter
		fs := FilterSpec{
			Name:     f.Name,
			Kind:     int(f.Kind),
			Ops:      f.Ops,
			ZeroCopy: f.ZeroCopy,
			Outputs:  append([]int(nil), f.Outputs...),
			Init:     append([]Token(nil), f.Init...),
		}
		for _, in := range f.Inputs {
			fs.Inputs = append(fs.Inputs, PortSpec{Pop: in.Pop, Peek: in.Peek})
		}
		spec.Nodes = append(spec.Nodes, NodeSpec{Filter: fs, Pipe: n.Pipe})
	}
	for _, e := range g.Edges {
		spec.Edges = append(spec.Edges, EdgeSpec{
			Src: int(e.Src), SrcPort: e.SrcPort,
			Dst: int(e.Dst), DstPort: e.DstPort,
			Initial: append([]Token(nil), e.Initial...),
		})
	}
	return spec
}

// ImportGraph rebuilds a structural twin from a wire form: same topology,
// rates, costs and steady state (and therefore the same fingerprint), with
// nil work functions.
func ImportGraph(spec GraphSpec) (*Graph, error) {
	b := NewBuilder(spec.Name)
	for i, ns := range spec.Nodes {
		fs := ns.Filter
		f := &Filter{
			Name:     fs.Name,
			Kind:     Kind(fs.Kind),
			Ops:      fs.Ops,
			ZeroCopy: fs.ZeroCopy,
			Outputs:  append([]int(nil), fs.Outputs...),
			Init:     append([]Token(nil), fs.Init...),
		}
		for _, in := range fs.Inputs {
			f.Inputs = append(f.Inputs, InRate{Pop: in.Pop, Peek: in.Peek})
		}
		if id := b.AddNode(f, ns.Pipe); int(id) != i {
			return nil, fmt.Errorf("sdf: import: node %d assigned id %d", i, id)
		}
	}
	for i := range spec.Edges {
		es := &spec.Edges[i]
		if _, _, ok := spec.edgeRates(es); !ok {
			return nil, fmt.Errorf("sdf: import: edge %d joins a missing node or port", i)
		}
		b.ConnectDelayed(NodeID(es.Src), es.SrcPort, NodeID(es.Dst), es.DstPort, es.Initial)
	}
	// Builder.Graph re-validates the wired structure and solves the balance
	// equations, so the twin has the same steady state as the original.
	return b.Graph()
}

// edgeRates returns the rates of the two ports an edge joins — its source's
// output and its destination's input — and false, with zero rates, when
// either node or port is missing from the spec.
func (spec *GraphSpec) edgeRates(e *EdgeSpec) (push int, in PortSpec, ok bool) {
	if e.Src < 0 || e.Src >= len(spec.Nodes) || e.Dst < 0 || e.Dst >= len(spec.Nodes) {
		return 0, PortSpec{}, false
	}
	outs, ins := spec.Nodes[e.Src].Filter.Outputs, spec.Nodes[e.Dst].Filter.Inputs
	if e.SrcPort < 0 || e.SrcPort >= len(outs) || e.DstPort < 0 || e.DstPort >= len(ins) {
		return 0, PortSpec{}, false
	}
	return outs[e.SrcPort], ins[e.DstPort], true
}

// MembersOf returns the ascending member list, over a graph of `size` nodes,
// of explicit ids given in any order, rejecting out-of-range or duplicate
// entries.
func MembersOf(size int, ids []int) ([]NodeID, error) {
	members := make([]NodeID, len(ids))
	for i, id := range ids {
		if id < 0 || id >= size {
			return nil, fmt.Errorf("sdf: node id %d out of range [0,%d)", id, size)
		}
		members[i] = NodeID(id)
	}
	slices.Sort(members)
	for i := 1; i < len(members); i++ {
		if members[i] == members[i-1] {
			return nil, fmt.Errorf("sdf: duplicate node id %d", members[i])
		}
	}
	return members, nil
}
