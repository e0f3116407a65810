// Package pdg builds the Partition Dependence Graph of §3.2.2 (Figure 3.4):
// the quotient of the stream graph under a partitioning. Nodes are
// partitions annotated with their estimated workload; an edge (p_i, p_j)
// exists when the stream graph connects the two partitions, weighted by
// D_ij — the total bytes per parent-graph steady-state iteration crossing
// the cut. Host I/O (the primary inputs and outputs of the application) is
// tracked per partition, since that traffic loads the PCIe tree too.
package pdg

import (
	"fmt"
	"sort"

	"streammap/internal/partition"
	"streammap/internal/sdf"
)

// Edge is one PDG edge with aggregated weight.
type Edge struct {
	From, To  int   // partition indices
	Bytes     int64 // bytes per parent steady-state iteration (D_ij)
	StreamCut []sdf.EdgeID
}

// PDG is the partition dependence graph.
type PDG struct {
	Graph *sdf.Graph
	Parts []*partition.Partition
	Edges []Edge

	// WorkUS is T_i per partition: estimated execution time per parent
	// steady-state iteration, in microseconds.
	WorkUS []float64

	HostInBytes  []int64 // per partition: primary input bytes / parent iteration
	HostOutBytes []int64 // per partition: primary output bytes / parent iteration

	Topo []int // partition indices in topological order
}

// NumParts returns the partition count P.
func (p *PDG) NumParts() int { return len(p.WorkUS) }

// WorkloadUS returns partition i's estimated time per parent iteration (the
// T_i fed to the mapping step, before fragment scaling).
func (p *PDG) WorkloadUS(i int) float64 { return p.WorkUS[i] }

// Build constructs the PDG and verifies the partitioning: every node is
// owned by exactly one partition, and the quotient is acyclic (convex
// partitions of a DAG always are; feedback loops must have been collapsed by
// the partitioner). It is the one exact-cover and convexity check of every
// partitioning, compiled or decoded.
func Build(g *sdf.Graph, parts []*partition.Partition) (*PDG, error) {
	p := &PDG{
		Graph:        g,
		Parts:        parts,
		WorkUS:       make([]float64, len(parts)),
		HostInBytes:  make([]int64, len(parts)),
		HostOutBytes: make([]int64, len(parts)),
	}
	for i, part := range parts {
		p.WorkUS[i] = part.TWus()
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

	type key struct{ from, to int }
	agg := map[key]*Edge{}
	var order []key
	for _, e := range g.Edges {
		fi, ti := owner[e.Src], owner[e.Dst]
		if fi == ti {
			continue
		}
		k := key{fi, ti}
		ed, ok := agg[k]
		if !ok {
			ed = &Edge{From: fi, To: ti}
			agg[k] = ed
			order = append(order, k)
		}
		ed.Bytes += g.EdgeBytes(e)
		ed.StreamCut = append(ed.StreamCut, e.ID)
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].from != order[b].from {
			return order[a].from < order[b].from
		}
		return order[a].to < order[b].to
	})
	for _, k := range order {
		p.Edges = append(p.Edges, *agg[k])
	}

	for _, port := range g.InputPorts() {
		p.HostInBytes[owner[port.Node]] += g.PortTokens(port, true) * sdf.TokenBytes
	}
	for _, port := range g.OutputPorts() {
		p.HostOutBytes[owner[port.Node]] += g.PortTokens(port, false) * sdf.TokenBytes
	}

	topo, err := p.topoOrder()
	if err != nil {
		return nil, err
	}
	p.Topo = topo
	return p, nil
}

// Synthetic builds a PDG directly from workloads and edges, without a stream
// graph behind it. Used by tests and by standalone mapping experiments.
func Synthetic(workUS []float64, edges []Edge, hostIn, hostOut []int64) (*PDG, error) {
	p := &PDG{
		WorkUS:       append([]float64(nil), workUS...),
		Edges:        append([]Edge(nil), edges...),
		HostInBytes:  append([]int64(nil), hostIn...),
		HostOutBytes: append([]int64(nil), hostOut...),
	}
	if p.HostInBytes == nil {
		p.HostInBytes = make([]int64, len(workUS))
	}
	if p.HostOutBytes == nil {
		p.HostOutBytes = make([]int64, len(workUS))
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

// TotalCutBytes sums all inter-partition traffic per parent iteration.
func (p *PDG) TotalCutBytes() int64 {
	var t int64
	for _, e := range p.Edges {
		t += e.Bytes
	}
	return t
}
