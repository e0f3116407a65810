// Package pdg builds the Partition Dependence Graph of §3.2.2 (Figure 3.4):
// the quotient of the stream graph under a partitioning. Nodes are
// partitions; an edge (p_i, p_j) exists when the stream graph connects the
// two partitions, weighted by D_ij — the total bytes per parent-graph
// steady-state iteration crossing the cut. Host I/O (the primary inputs
// and outputs of the application) is tracked per partition, since that
// traffic loads the PCIe tree too.
package pdg

import (
	"cmp"
	"fmt"
	"slices"

	"streammap/internal/partition"
	"streammap/internal/sdf"
)

// Edge is one PDG edge with aggregated weight.
type Edge struct {
	From, To int   // partition indices
	Bytes    int64 // bytes per parent steady-state iteration (D_ij)
}

// PDG is the partition dependence graph. The partitions' workloads stay
// with the partitions: the mapping problem carries each one's T_i.
type PDG struct {
	Edges []Edge

	HostInBytes  []int64 // per partition: primary input bytes / parent iteration
	HostOutBytes []int64 // per partition: primary output bytes / parent iteration

	Topo []int // partition indices in topological order
}

// NumParts returns the partition count P.
func (p *PDG) NumParts() int { return len(p.HostInBytes) }

// Build constructs the PDG and verifies the partitioning: every node is
// owned by exactly one partition, and the quotient is acyclic (convex
// partitions of a DAG always are; feedback loops must have been collapsed by
// the partitioner). It is the one exact-cover and convexity check of every
// partitioning, compiled or decoded.
func Build(g *sdf.Graph, parts []*partition.Partition) (*PDG, error) {
	p := &PDG{
		HostInBytes:  make([]int64, len(parts)),
		HostOutBytes: make([]int64, len(parts)),
	}
	owner := make([]int, g.NumNodes())
	for i := range owner {
		owner[i] = -1
	}
	for pi, part := range parts {
		for _, m := range part.Members {
			if owner[m] != -1 {
				return nil, fmt.Errorf("pdg: node %d in two partitions (%d and %d)", m, owner[m], pi)
			}
			owner[m] = pi
		}
	}
	for n, o := range owner {
		if o == -1 {
			return nil, fmt.Errorf("pdg: node %d not covered by any partition", n)
		}
	}

	// Cut edges sorted by (from, to), then each run of one pair summed.
	var cut []Edge
	for _, e := range g.Edges {
		if fi, ti := owner[e.Src], owner[e.Dst]; fi != ti {
			cut = append(cut, Edge{From: fi, To: ti, Bytes: g.EdgeBytes(e)})
		}
	}
	slices.SortFunc(cut, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	for _, e := range cut {
		if n := len(p.Edges); n > 0 && p.Edges[n-1].From == e.From && p.Edges[n-1].To == e.To {
			p.Edges[n-1].Bytes += e.Bytes
			continue
		}
		p.Edges = append(p.Edges, e)
	}

	for _, n := range g.Nodes {
		for port, in := range n.Filter.Inputs {
			if n.In(port) == -1 {
				p.HostInBytes[owner[n.ID]] += g.Rep(n.ID) * int64(in.Pop) * sdf.TokenBytes
			}
		}
		for port, push := range n.Filter.Outputs {
			if n.Out(port) == -1 {
				p.HostOutBytes[owner[n.ID]] += g.Rep(n.ID) * int64(push) * sdf.TokenBytes
			}
		}
	}

	topo, err := p.topoOrder()
	if err != nil {
		return nil, err
	}
	p.Topo = topo
	return p, nil
}

// Synthetic builds a PDG of n partitions directly from edges, without a
// stream graph behind it. Used by tests and by standalone mapping
// experiments; nil host I/O means none.
func Synthetic(n int, edges []Edge, hostIn, hostOut []int64) (*PDG, error) {
	p := &PDG{
		Edges:        append([]Edge(nil), edges...),
		HostInBytes:  append([]int64(nil), hostIn...),
		HostOutBytes: append([]int64(nil), hostOut...),
	}
	if p.HostInBytes == nil {
		p.HostInBytes = make([]int64, n)
	}
	if p.HostOutBytes == nil {
		p.HostOutBytes = make([]int64, n)
	}
	topo, err := p.topoOrder()
	if err != nil {
		return nil, err
	}
	p.Topo = topo
	return p, nil
}

// topoOrder returns the lexicographically smallest topological order of the
// partitions: Kahn's algorithm popping the smallest ready index off a heap,
// over per-partition out-lists, in O(E log P).
func (p *PDG) topoOrder() ([]int, error) {
	n := p.NumParts()
	indeg := make([]int, n)
	out := make([][]int, n)
	for _, e := range p.Edges {
		indeg[e.To]++
		out[e.From] = append(out[e.From], e.To)
	}
	ready := make(sdf.MinHeap[int], 0, n)
	for i, d := range indeg {
		if d == 0 {
			ready.Push(i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready.Pop()
		order = append(order, v)
		for _, w := range out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready.Push(w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("pdg: partition quotient has a cycle (non-convex partitioning?)")
	}
	return order, nil
}
