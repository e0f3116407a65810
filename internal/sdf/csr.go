package sdf

import (
	"slices"
	"sort"
	"sync/atomic"
)

// adjacency is a CSR-style index over a graph's structure: per-node sorted
// distinct successor/predecessor node ids and per-node connected edge ids,
// each packed into one shared backing array. It is derived once per graph
// (graphs are immutable after construction) and makes neighborhood queries —
// the inner loop of connectivity, convexity and boundary maintenance —
// allocation-free.
type adjacency struct {
	nodes, edges int // snapshot of the graph shape the index was built for

	succOff []int32
	succ    []NodeID
	predOff []int32
	pred    []NodeID
	outOff  []int32
	outE    []EdgeID
	inOff   []int32
	inE     []EdgeID

	rank atomic.Pointer[[]int32] // per-node SCC rank, built by sccRank on first use
}

// succOf returns node id's distinct successors, ascending. The slice aliases
// the index (full-capacity sliced, so appends copy); callers must not write.
func (a *adjacency) succOf(id NodeID) []NodeID {
	return a.succ[a.succOff[id]:a.succOff[id+1]:a.succOff[id+1]]
}

// predOf returns node id's distinct predecessors, ascending.
func (a *adjacency) predOf(id NodeID) []NodeID {
	return a.pred[a.predOff[id]:a.predOff[id+1]:a.predOff[id+1]]
}

// outEdgesOf returns the connected out-edge ids of node id, in port order.
func (a *adjacency) outEdgesOf(id NodeID) []EdgeID {
	return a.outE[a.outOff[id]:a.outOff[id+1]:a.outOff[id+1]]
}

// inEdgesOf returns the connected in-edge ids of node id, in port order.
func (a *adjacency) inEdgesOf(id NodeID) []EdgeID {
	return a.inE[a.inOff[id]:a.inOff[id+1]:a.inOff[id+1]]
}

// adj returns the graph's adjacency index, building it on first use. The
// cache is an atomic pointer: concurrent first queries may build duplicate
// indices (identical, one wins), after which every reader shares one. A
// stale index is impossible for the supported lifecycle — graphs are not
// restructured after Builder.Graph/Extract/Import — but the shape snapshot
// guards against a builder reusing a half-built graph.
func (g *Graph) adj() *adjacency {
	if a := g.adjCache.Load(); a != nil && a.nodes == len(g.Nodes) && a.edges == len(g.Edges) {
		return a
	}
	a := buildAdjacency(g)
	g.adjCache.Store(a)
	return a
}

func buildAdjacency(g *Graph) *adjacency {
	n := len(g.Nodes)
	a := &adjacency{
		nodes:   n,
		edges:   len(g.Edges),
		succOff: make([]int32, n+1),
		predOff: make([]int32, n+1),
		outOff:  make([]int32, n+1),
		inOff:   make([]int32, n+1),
	}
	// Count connected ports per node.
	for _, nd := range g.Nodes {
		var out, in int32
		for _, e := range nd.out {
			if e != -1 {
				out++
			}
		}
		for _, e := range nd.in {
			if e != -1 {
				in++
			}
		}
		a.outOff[nd.ID+1] = out
		a.inOff[nd.ID+1] = in
	}
	for i := 0; i < n; i++ {
		a.outOff[i+1] += a.outOff[i]
		a.inOff[i+1] += a.inOff[i]
	}
	a.outE = make([]EdgeID, a.outOff[n])
	a.inE = make([]EdgeID, a.inOff[n])
	outNext := make([]int32, n)
	inNext := make([]int32, n)
	for _, nd := range g.Nodes {
		for _, e := range nd.out {
			if e != -1 {
				a.outE[a.outOff[nd.ID]+outNext[nd.ID]] = e
				outNext[nd.ID]++
			}
		}
		for _, e := range nd.in {
			if e != -1 {
				a.inE[a.inOff[nd.ID]+inNext[nd.ID]] = e
				inNext[nd.ID]++
			}
		}
	}
	// Distinct sorted neighbor lists, deduplicated per node.
	var scratch []NodeID
	fill := func(off []int32, edgesOf func(NodeID) []EdgeID, otherEnd func(*Edge) NodeID) []NodeID {
		var packed []NodeID
		for _, nd := range g.Nodes {
			scratch = scratch[:0]
			for _, eid := range edgesOf(nd.ID) {
				scratch = append(scratch, otherEnd(g.Edges[eid]))
			}
			sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
			for i, v := range scratch {
				if i == 0 || scratch[i-1] != v {
					packed = append(packed, v)
				}
			}
			off[nd.ID+1] = int32(len(packed))
		}
		return packed
	}
	a.succ = fill(a.succOff, a.outEdgesOf, func(e *Edge) NodeID { return e.Dst })
	a.pred = fill(a.predOff, a.inEdgesOf, func(e *Edge) NodeID { return e.Src })
	return a
}

// StronglyConnected returns Tarjan's strongly connected components of g,
// each a node list, in the order Tarjan completes them: a component comes
// after every component it reaches, so the list is a reverse topological
// order of the condensation.
func (g *Graph) StronglyConnected() [][]NodeID {
	a := g.adj()
	n := len(g.Nodes)
	index := make([]int, n) // visit number from 1; 0: not visited yet
	low := make([]int, n)   // n+1 once the node's component is out
	var stack []NodeID
	var out [][]NodeID
	visited := 0
	var strong func(v NodeID)
	strong = func(v NodeID) {
		visited++
		index[v], low[v] = visited, visited
		stack = append(stack, v)
		for _, w := range a.succOf(v) {
			if index[w] == 0 {
				strong(w)
			}
			low[v] = min(low[v], low[w])
		}
		if low[v] == index[v] {
			i := len(stack) - 1
			for stack[i] != v {
				i--
			}
			scc := slices.Clone(stack[i:])
			slices.Reverse(scc) // the order Tarjan pops them in
			for _, w := range scc {
				low[w] = n + 1
			}
			stack = stack[:i]
			out = append(out, scc)
		}
	}
	for v := range n {
		if index[v] == 0 {
			strong(NodeID(v))
		}
	}
	return out
}

// sccRank returns each node's component's position in a topological order
// of the components: ranks never fall along an edge, and are equal exactly
// within a component. Built on first use and cached on the adjacency index,
// so only convexity queries pay for them.
func (g *Graph) sccRank() []int32 {
	a := g.adj()
	if r := a.rank.Load(); r != nil {
		return *r
	}
	sccs := g.StronglyConnected()
	rank := make([]int32, len(g.Nodes))
	for i, scc := range sccs {
		for _, v := range scc {
			rank[v] = int32(len(sccs) - 1 - i)
		}
	}
	a.rank.Store(&rank)
	return rank
}

// adjPointer is the cache slot type; declared separately so graph.go's struct
// stays readable.
type adjPointer = atomic.Pointer[adjacency]
