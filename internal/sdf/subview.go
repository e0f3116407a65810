package sdf

// SubView is an allocation-lean stand-in for Extract: it describes the
// induced subgraph over a member list — members, normalized repetition
// vector, granularity scale — without copying nodes or edges into a fresh
// Graph. Every partition is scored and checked through one: the estimator
// (pee.Engine, smreq.PeakBytesView) and the artifact decoder, which derives
// each partition's Scale and holds its SM bytes here. Extract remains the
// materializing form, used only by code generation, the simulator's
// functional pass and the compile referee.
//
// A view borrows its member list from the caller and reuses its internal
// buffers across Fill calls, so it is valid only until the next Fill and
// must not be shared between goroutines. Each pee.Engine reuses one.
type SubView struct {
	G *Graph

	members []NodeID // borrowed; ascending
	rep     []int64  // normalized repetition per member position
	pos     []int32  // parent node id -> member position (members only)
	Scale   int64    // parent reps = Scale * view reps for member nodes

	indeg []int32 // Acyclic scratch
	queue []int32 // Acyclic scratch
}

// Fill populates the view for members, ascending parent node ids, over g,
// reusing v's buffers; the view reads members until the next Fill. The cost
// is the members, not the parent. members must be non-empty — the
// precondition Extract enforces with an error; Fill's caller (the estimation
// engine) checks it once per query.
func (v *SubView) Fill(g *Graph, members []NodeID) {
	v.G = g
	v.members = members
	if cap(v.pos) < len(g.Nodes) {
		v.pos = make([]int32, len(g.Nodes))
	}
	v.pos = v.pos[:len(g.Nodes)]
	if cap(v.rep) < len(v.members) {
		v.rep = make([]int64, 0, len(v.members))
	}
	v.rep = v.rep[:len(v.members)]
	var gcd int64
	for i, pid := range v.members {
		v.pos[pid] = int32(i)
		r := g.Rep(pid)
		v.rep[i] = r
		gcd = GCD(gcd, r)
	}
	for i := range v.rep {
		v.rep[i] /= gcd
	}
	v.Scale = gcd
}

// NumNodes returns the member count.
func (v *SubView) NumNodes() int { return len(v.members) }

// Members returns the member parent ids, ascending. The slice aliases the
// view; callers must not write to it.
func (v *SubView) Members() []NodeID { return v.members }

// Has reports membership of a parent node id. pos is never cleared, so a
// non-member's entry may be left from an earlier Fill: only a member's entry
// points back at it.
func (v *SubView) Has(id NodeID) bool {
	i := v.pos[id]
	return int(i) < len(v.members) && v.members[i] == id
}

// Rep returns the normalized repetition count of parent node id, which must
// be a member. It equals Extract(members).Sub.Rep at the member's sub id.
func (v *SubView) Rep(id NodeID) int64 { return v.rep[v.pos[id]] }

// RepAt returns the normalized repetition count of the member at position i
// of Members().
func (v *SubView) RepAt(i int) int64 { return v.rep[i] }

// edgeBreaksCycleView mirrors Graph.edgeBreaksCycle at view granularity: the
// extracted subgraph's repetition vector is the gcd-normalized restriction,
// so delay sufficiency is judged against the view rep, exactly as TopoOrder
// judges it on the materialized sub.
func (v *SubView) edgeBreaksCycle(e *Edge) bool {
	if len(e.Initial) == 0 {
		return false
	}
	return int64(len(e.Initial)) >= v.Rep(e.Dst)*int64(e.Pop)
}

// Acyclic reports whether the induced subgraph admits a topological order
// under the same delay-token rule Graph.TopoOrder applies — i.e. whether
// Extract(members).Sub.TopoOrder() would succeed. It is true without a
// walk once StronglyConnected has found the parent free of directed cycles.
func (v *SubView) Acyclic() bool {
	if v.G.adj().acyclic.Load() {
		return true
	}
	n := len(v.members)
	if cap(v.indeg) < n {
		v.indeg = make([]int32, n)
		v.queue = make([]int32, 0, n)
	}
	v.indeg = v.indeg[:n]
	for i := range v.indeg {
		v.indeg[i] = 0
	}
	adj := v.G.adj()
	for _, pid := range v.members {
		for _, eid := range adj.outEdgesOf(pid) {
			e := v.G.Edges[eid]
			if v.Has(e.Dst) && !v.edgeBreaksCycle(e) {
				v.indeg[v.pos[e.Dst]]++
			}
		}
	}
	queue := v.queue[:0]
	for i := 0; i < n; i++ {
		if v.indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, eid := range adj.outEdgesOf(v.members[i]) {
			e := v.G.Edges[eid]
			if !v.Has(e.Dst) || v.edgeBreaksCycle(e) {
				continue
			}
			j := v.pos[e.Dst]
			v.indeg[j]--
			if v.indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	v.queue = queue[:0]
	return done == n
}

// IOBytesPerIteration returns the primary I/O traffic, in bytes, of one view
// steady-state iteration, the paper's per-execution I/O data size D: cut
// edges and inherited parent primary ports alike, the extracted form's
// primary ports — all of them travel through GPU global memory.
func (v *SubView) IOBytesPerIteration() int64 {
	var tokens int64
	for i, pid := range v.members {
		n := v.G.Nodes[pid]
		f := n.Filter
		for p := range f.Inputs {
			eid := n.In(p)
			if eid == -1 || !v.Has(v.G.Edges[eid].Src) {
				tokens += v.rep[i] * int64(f.Inputs[p].Pop)
			}
		}
		for p := range f.Outputs {
			eid := n.Out(p)
			if eid == -1 || !v.Has(v.G.Edges[eid].Dst) {
				tokens += v.rep[i] * int64(f.Outputs[p])
			}
		}
	}
	return tokens * TokenBytes
}
