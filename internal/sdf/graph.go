package sdf

import (
	"fmt"
)

// NodeID identifies a node within its Graph; IDs are dense 0..len(Nodes)-1.
type NodeID int

// EdgeID identifies an edge within its Graph; IDs are dense 0..len(Edges)-1.
type EdgeID int

// None marks an unconnected port endpoint.
const None = NodeID(-1)

// Node is one filter instance placed in a graph. Pipe is the identifier of
// the innermost pipeline construct the node appeared in (-1 if none); the
// partitioner's phase 1 works pipeline by pipeline.
type Node struct {
	ID     NodeID
	Filter *Filter
	Pipe   int

	in  []EdgeID // by input port; -1 when the port is a graph input
	out []EdgeID // by output port; -1 when the port is a graph output
}

// In returns the edge attached to input port p, or -1 for a graph input.
func (n *Node) In(p int) EdgeID { return n.in[p] }

// Out returns the edge attached to output port p, or -1 for a graph output.
func (n *Node) Out(p int) EdgeID { return n.out[p] }

// Edge is a FIFO channel between an output port of Src and an input port of
// Dst. Push/Pop/Peek are the per-firing rates at the two endpoints. Initial
// holds delay tokens present before the first firing (feedback loops).
type Edge struct {
	ID      EdgeID
	Src     NodeID
	SrcPort int
	Push    int
	Dst     NodeID
	DstPort int
	Pop     int
	Peek    int
	Initial []Token
}

// PortRef names one unconnected port: a primary input or output of the graph.
type PortRef struct {
	Node NodeID
	Port int
}

// Graph is a stream graph: filters (nodes) connected by FIFO channels
// (edges). Every Graph is steady by construction: Builder.Graph (behind
// Flatten and ImportGraph) validates it and solves its balance equations
// before returning it, and Extract sets a subgraph's vector itself. Steady
// re-solves them.
type Graph struct {
	Name  string
	Nodes []*Node
	Edges []*Edge

	rep []int64 // repetition vector

	adjCache   adjPointer   // lazily built CSR adjacency index (csr.go)
	identCache identPointer // memoized Fingerprint/Digest (fingerprint.go)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Node0 returns the node with the given id.
func (g *Graph) Node0(id NodeID) *Node { return g.Nodes[id] }

// Edge0 returns the edge with the given id.
func (g *Graph) Edge0(id EdgeID) *Edge { return g.Edges[id] }

// Rep returns the steady-state repetition count of node id (the paper's
// firing rate f_i).
func (g *Graph) Rep(id NodeID) int64 { return g.rep[id] }

// EdgeTokens returns the number of tokens traversing edge e during one
// steady-state iteration: rep(src) * push (== rep(dst) * pop).
func (g *Graph) EdgeTokens(e *Edge) int64 {
	return g.Rep(e.Src) * int64(e.Push)
}

// EdgeBytes returns EdgeTokens in bytes.
func (g *Graph) EdgeBytes(e *Edge) int64 { return g.EdgeTokens(e) * TokenBytes }

// InputPorts returns the graph's primary input ports in deterministic order
// (ascending node id, then port).
func (g *Graph) InputPorts() []PortRef {
	var ps []PortRef
	for _, n := range g.Nodes {
		for p, e := range n.in {
			if e == -1 {
				ps = append(ps, PortRef{n.ID, p})
			}
		}
	}
	return ps
}

// OutputPorts returns the graph's primary output ports in deterministic
// order.
func (g *Graph) OutputPorts() []PortRef {
	var ps []PortRef
	for _, n := range g.Nodes {
		for p, e := range n.out {
			if e == -1 {
				ps = append(ps, PortRef{n.ID, p})
			}
		}
	}
	return ps
}

// PortTokens returns the tokens per steady-state iteration flowing through a
// primary port: rep(node) * rate.
func (g *Graph) PortTokens(ref PortRef, input bool) int64 {
	n := g.Nodes[ref.Node]
	if input {
		return g.Rep(ref.Node) * int64(n.Filter.Inputs[ref.Port].Pop)
	}
	return g.Rep(ref.Node) * int64(n.Filter.Outputs[ref.Port])
}

// OutEdges returns the ids of edges leaving node id (unconnected ports
// skipped). The slice aliases the graph's CSR index; callers must not write
// to it (appends are safe: the slice is capacity-clamped).
func (g *Graph) OutEdges(id NodeID) []EdgeID { return g.adj().outEdgesOf(id) }

// Succ returns the distinct successor node ids of id, ascending. The slice
// aliases the graph's CSR index; callers must not write to it.
func (g *Graph) Succ(id NodeID) []NodeID { return g.adj().succOf(id) }

// Pred returns the distinct predecessor node ids of id, ascending. Aliasing
// as Succ.
func (g *Graph) Pred(id NodeID) []NodeID { return g.adj().predOf(id) }

// TopoOrder returns a topological ordering of all nodes, treating edges that
// carry enough initial tokens for a full steady-state iteration as absent
// (they impose no intra-iteration ordering). It fails on true cycles.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		if g.edgeBreaksCycle(e) {
			continue
		}
		indeg[e.Dst]++
	}
	queue := make(MinHeap[NodeID], 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if indeg[n.ID] == 0 {
			queue.Push(n.ID)
		}
	}
	order := make([]NodeID, 0, len(g.Nodes))
	for len(queue) > 0 {
		// Pop the smallest id for determinism.
		id := queue.Pop()
		order = append(order, id)
		for _, eid := range g.OutEdges(id) {
			e := g.Edges[eid]
			if g.edgeBreaksCycle(e) {
				continue
			}
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				queue.Push(e.Dst)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("sdf: graph %s has a cycle without sufficient initial tokens", g.Name)
	}
	return order, nil
}

// MinHeap is a binary min-heap of ids. Popping the smallest ready id off it
// gives TopoOrder and the PDG's order, the lexicographically smallest
// topological order, at O((N+E) log N).
type MinHeap[T ~int] []T

// Push adds id.
func (h *MinHeap[T]) Push(id T) {
	q := append(*h, id)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

// Pop removes and returns the smallest id.
func (h *MinHeap[T]) Pop() T {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q) && q[l] < q[small] {
			small = l
		}
		if r < len(q) && q[r] < q[small] {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}

// edgeBreaksCycle reports whether e carries enough delay tokens to decouple
// one full iteration (its consumer can complete an iteration before any
// producer firing).
func (g *Graph) edgeBreaksCycle(e *Edge) bool {
	return len(e.Initial) > 0 && int64(len(e.Initial)) >= g.Rep(e.Dst)*int64(e.Pop)
}

// Validate checks structural invariants: ports wired consistently, rates
// positive, endpoint rates matching filter declarations.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if n.Filter == nil {
			return fmt.Errorf("sdf: node %d has nil filter", n.ID)
		}
		if err := n.Filter.validate(); err != nil {
			return err
		}
		if len(n.in) != len(n.Filter.Inputs) || len(n.out) != len(n.Filter.Outputs) {
			return fmt.Errorf("sdf: node %d (%s): port arrays do not match filter arity", n.ID, n.Filter.Name)
		}
	}
	for _, e := range g.Edges {
		if e.Src < 0 || int(e.Src) >= len(g.Nodes) || e.Dst < 0 || int(e.Dst) >= len(g.Nodes) {
			return fmt.Errorf("sdf: edge %d has out-of-range endpoint", e.ID)
		}
		src, dst := g.Nodes[e.Src], g.Nodes[e.Dst]
		if e.SrcPort >= len(src.out) || src.out[e.SrcPort] != e.ID {
			return fmt.Errorf("sdf: edge %d not wired at source %s port %d", e.ID, src.Filter.Name, e.SrcPort)
		}
		if e.DstPort >= len(dst.in) || dst.in[e.DstPort] != e.ID {
			return fmt.Errorf("sdf: edge %d not wired at destination %s port %d", e.ID, dst.Filter.Name, e.DstPort)
		}
		if e.Push != src.Filter.Outputs[e.SrcPort] {
			return fmt.Errorf("sdf: edge %d push %d != filter %s port push %d", e.ID, e.Push, src.Filter.Name, src.Filter.Outputs[e.SrcPort])
		}
		if e.Pop != dst.Filter.Inputs[e.DstPort].Pop || e.Peek != dst.Filter.Inputs[e.DstPort].Peek {
			return fmt.Errorf("sdf: edge %d pop/peek mismatch at %s", e.ID, dst.Filter.Name)
		}
	}
	return nil
}

// Builder assembles a Graph node by node. The structural API in build.go is
// the usual entry point; Builder is the low-level one (ImportGraph, sjopt
// and tests use it). Graph is its one exit.
type Builder struct {
	g *Graph
}

// NewBuilder returns an empty graph builder.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{Name: name}}
}

// AddNode places a filter instance and returns its id. pipe is the innermost
// pipeline identifier (-1 if none).
func (b *Builder) AddNode(f *Filter, pipe int) NodeID {
	id := NodeID(len(b.g.Nodes))
	n := &Node{
		ID:     id,
		Filter: f,
		Pipe:   pipe,
		in:     make([]EdgeID, len(f.Inputs)),
		out:    make([]EdgeID, len(f.Outputs)),
	}
	for i := range n.in {
		n.in[i] = -1
	}
	for i := range n.out {
		n.out[i] = -1
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return id
}

// Connect wires src's output port sp to dst's input port dp.
func (b *Builder) Connect(src NodeID, sp int, dst NodeID, dp int) EdgeID {
	return b.ConnectDelayed(src, sp, dst, dp, nil)
}

// ConnectDelayed is Connect with initial (delay) tokens on the channel.
func (b *Builder) ConnectDelayed(src NodeID, sp int, dst NodeID, dp int, initial []Token) EdgeID {
	sn, dn := b.g.Nodes[src], b.g.Nodes[dst]
	e := &Edge{
		ID:      EdgeID(len(b.g.Edges)),
		Src:     src,
		SrcPort: sp,
		Push:    sn.Filter.Outputs[sp],
		Dst:     dst,
		DstPort: dp,
		Pop:     dn.Filter.Inputs[dp].Pop,
		Peek:    dn.Filter.Inputs[dp].Peek,
		Initial: append([]Token(nil), initial...),
	}
	sn.out[sp] = e.ID
	dn.in[dp] = e.ID
	b.g.Edges = append(b.g.Edges, e)
	return e.ID
}

// Graph validates the built graph, solves the balance equations and returns
// it.
func (b *Builder) Graph() (*Graph, error) {
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	if err := b.g.Steady(); err != nil {
		return nil, err
	}
	return b.g, nil
}
