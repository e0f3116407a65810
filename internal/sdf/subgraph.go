package sdf

import (
	"fmt"
	"slices"
)

// BoundaryEdge ties an original cut edge to the primary port it became in
// the extracted subgraph.
type BoundaryEdge struct {
	Orig EdgeID  // edge id in the parent graph
	Port PortRef // primary port in the subgraph
}

// Subgraph is the result of extracting an induced node set from a parent
// graph: Sub is a standalone Graph whose primary ports are the cut edges
// plus any of the parent's primary ports that fell inside the set. A
// partition is not one — it is its member list, scored and laid out through
// a SubView — and a Subgraph is built only where a real graph is needed:
// code generation's SM layout and schedule, the simulator's functional
// pass, which runs each kernel's interpreter and binds its ports, and the
// compile referee's from-scratch layout. It carries only what those read:
// the node map back to the parent and the two cut-edge lists.
type Subgraph struct {
	Sub *Graph

	NodeOf []NodeID       // sub node id -> parent node id, ascending
	CutIn  []BoundaryEdge // parent edges entering the set, ascending parent edge id
	CutOut []BoundaryEdge // parent edges leaving the set, ascending parent edge id
	Scale  int64          // parent reps = Scale * sub reps for member nodes
}

// Extract builds the induced subgraph over members, a strictly ascending
// list of parent node ids; a parent node's sub id is its position in it.
// The sub repetition vector is the parent's restricted vector divided by its
// gcd, so one sub iteration is the minimal self-consistent unit of work;
// Scale records the ratio.
//
// The cost is the members and their own ports, not the parent: internal and
// cut edges are read off each member's adjacency slice and then sorted by
// parent edge id. That order — the order a scan of the parent's edge list
// would produce — numbers Sub.Edges and orders CutIn/CutOut, and generated
// code's SM layouts and the simulator's port binding depend on it.
func (g *Graph) Extract(members []NodeID) (*Subgraph, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sdf: Extract: empty set")
	}
	for i, pid := range members {
		if pid < 0 || int(pid) >= len(g.Nodes) || i > 0 && pid <= members[i-1] {
			return nil, fmt.Errorf("sdf: Extract: members are not ascending node ids of %s", g.Name)
		}
	}
	members = slices.Clone(members)
	has := func(pid NodeID) bool {
		_, ok := slices.BinarySearch(members, pid)
		return ok
	}
	subOf := func(pid NodeID) NodeID {
		i, _ := slices.BinarySearch(members, pid)
		return NodeID(i)
	}
	s := &Subgraph{NodeOf: members}
	sub := &Graph{Name: g.Name + FormatMembers(members)}
	adj := g.adj()
	var internal, cutOut, cutIn []EdgeID
	for _, pid := range members {
		pn := g.Nodes[pid]
		n := &Node{ID: NodeID(len(sub.Nodes)), Filter: pn.Filter, Pipe: pn.Pipe,
			in: make([]EdgeID, len(pn.in)), out: make([]EdgeID, len(pn.out))}
		for i := range n.in {
			n.in[i] = -1
		}
		for i := range n.out {
			n.out[i] = -1
		}
		sub.Nodes = append(sub.Nodes, n)
		for _, eid := range adj.outEdgesOf(pid) {
			if has(g.Edges[eid].Dst) {
				internal = append(internal, eid)
			} else {
				cutOut = append(cutOut, eid)
			}
		}
		for _, eid := range adj.inEdgesOf(pid) {
			if !has(g.Edges[eid].Src) {
				cutIn = append(cutIn, eid)
			}
		}
	}
	slices.Sort(internal)
	slices.Sort(cutOut)
	slices.Sort(cutIn)
	for _, eid := range internal {
		e := g.Edges[eid]
		ne := &Edge{
			ID:  EdgeID(len(sub.Edges)),
			Src: subOf(e.Src), SrcPort: e.SrcPort, Push: e.Push,
			Dst: subOf(e.Dst), DstPort: e.DstPort, Pop: e.Pop, Peek: e.Peek,
			Initial: append([]Token(nil), e.Initial...),
		}
		sub.Nodes[ne.Src].out[ne.SrcPort] = ne.ID
		sub.Nodes[ne.Dst].in[ne.DstPort] = ne.ID
		sub.Edges = append(sub.Edges, ne)
	}
	// Cut edges become primary ports of the subgraph.
	for _, eid := range cutOut {
		e := g.Edges[eid]
		s.CutOut = append(s.CutOut, BoundaryEdge{Orig: eid, Port: PortRef{subOf(e.Src), e.SrcPort}})
	}
	for _, eid := range cutIn {
		e := g.Edges[eid]
		s.CutIn = append(s.CutIn, BoundaryEdge{Orig: eid, Port: PortRef{subOf(e.Dst), e.DstPort}})
	}
	// Restricted repetition vector, gcd-normalized.
	rep := make([]int64, len(members))
	var gcd int64
	for i, pid := range members {
		rep[i] = g.Rep(pid)
		gcd = GCD(gcd, rep[i])
	}
	for i := range rep {
		rep[i] /= gcd
	}
	sub.rep = rep
	s.Scale = gcd
	s.Sub = sub
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// CutInPorts returns, sorted by subgraph port order, the set of sub primary
// input ports that correspond to cut edges (as opposed to inherited parent
// primary inputs).
func (s *Subgraph) CutInPorts() map[PortRef]EdgeID {
	m := make(map[PortRef]EdgeID, len(s.CutIn))
	for _, b := range s.CutIn {
		m[b.Port] = b.Orig
	}
	return m
}

// CutOutPorts is the output-side analogue of CutInPorts.
func (s *Subgraph) CutOutPorts() map[PortRef]EdgeID {
	m := make(map[PortRef]EdgeID, len(s.CutOut))
	for _, b := range s.CutOut {
		m[b.Port] = b.Orig
	}
	return m
}
