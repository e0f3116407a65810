// Package partition implements the paper's four-phase partitioning heuristic
// (Algorithm 1) and the previous work's SM-only partitioner used as a
// baseline.
//
// A partition is a convex, connected set of stream-graph nodes that will
// become one GPU kernel. Try-Merge accepts a merge only when (i) the two
// sides are connected, (ii) the union is convex, and (iii) the performance
// estimation engine expects the merged kernel to run faster than the two
// kernels separately — which implicitly enforces the shared-memory size
// constraint, since an unschedulable merge has no estimate at all.
//
// Because partitions may execute at different steady-state granularities
// (subgraph repetition vectors are gcd-normalized), all comparisons use the
// workload per *parent-graph* iteration: TW(p) = T(p) · Scale(p). For
// equal-granularity partitions this is exactly the paper's T comparison.
package partition

import (
	"context"
	"fmt"
	"sort"

	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// Partition is one selected kernel-to-be: its member list, its granularity
// scale and the estimator's verdict. Members ascends and is owned by the
// partition; Scale is the gcd of the members' parent repetition counts
// (parent reps = Scale * kernel reps), the Scale sdf.Extract would record.
// Nothing here is a copy of the graph: code generation and the simulator's
// functional pass extract the members when they need a standalone one.
type Partition struct {
	Members []sdf.NodeID
	Scale   int64
	Est     *pee.Estimate
}

// cand is a partition during Algorithm 1's search. The workload comparison
// needs only the estimate and the granularity scale; RunCtx turns the
// survivors into Partitions once at the end, and no cand leaves it.
type cand struct {
	set      sdf.NodeSet
	boundary sdf.NodeSet // nodes adjacent to set, outside it
	est      *pee.Estimate
	scale    int64 // the partition's Scale
}

// tw is the candidate's TWus.
func (c *cand) tw() float64 { return c.est.TUS * float64(c.scale) }

// Result is the partitioner's output.
type Result struct {
	Graph *sdf.Graph
	Parts []*Partition

	// Phase trace for reporting: partition counts after each phase. The
	// multilevel path reports [seeds, after-merge, after-all-nodes,
	// after-refine, final] in the same slots.
	CountAfterPhase [5]int

	// ML is non-nil when the multilevel path produced this result.
	ML *MLStats
}

type partitioner struct {
	g   *sdf.Graph
	eng *pee.Engine
	ctx context.Context

	parts    []*cand   // live partitions (nil holes compacted lazily)
	tws      []float64 // parts[i].tw(), the key of every merge scan's sort
	assigned []int     // node -> index into parts, -1 if none

	// Scratch reused by every Try-Merge: each candidate union is built in
	// the one union set, listed into members for the engine, and convexity
	// checks reuse the checker's traversal buffers, so the scan allocates
	// only for accepted merges and memo misses.
	union     sdf.NodeSet
	convex    *sdf.ConvexChecker
	members   []sdf.NodeID
	idScratch []sdf.NodeID
}

// RunCtx executes Algorithm 1 on the calling goroutine: the paper's greedy
// scan restarts on the first profitable merge, so it has no independent
// units to spread. The context cancels the run between phases and between
// merge rounds. The last argument is unused; it survives only because the
// frozen bench/compile.go passes it, and the next benchmark PR drops it.
func RunCtx(ctx context.Context, g *sdf.Graph, eng *pee.Engine, _ int) (*Result, error) {
	n := g.NumNodes()
	p := &partitioner{g: g, eng: eng, ctx: ctx, assigned: make([]int, n),
		union: sdf.NewNodeSet(n), convex: g.NewConvexChecker()}
	for i := range p.assigned {
		p.assigned[i] = -1
	}
	res := &Result{Graph: g}

	phases := []func() error{p.phase0SCC, p.phase1, p.phase2Remaining, p.phase3BoundMerging, p.phase4Simultaneous}
	for i, phase := range phases {
		if err := p.cancelled(); err != nil {
			return nil, err
		}
		if err := phase(); err != nil {
			return nil, err
		}
		res.CountAfterPhase[i] = len(p.compact())
	}

	for _, c := range p.compact() {
		res.Parts = append(res.Parts, &Partition{Members: c.set.Members(), Scale: c.scale, Est: c.est})
	}

	if err := CheckConnected(p.g, res.Parts); err != nil {
		return nil, err
	}
	sortParts(p.g, res.Parts)
	return res, nil
}

// cancelled reports a context cancellation, if any.
func (p *partitioner) cancelled() error {
	if err := p.ctx.Err(); err != nil {
		return fmt.Errorf("partition: cancelled: %w", err)
	}
	return nil
}

// estimate scores a node set through the engine's member-list memo and
// returns its verdict with its granularity scale.
func (p *partitioner) estimate(set sdf.NodeSet) (*pee.Estimate, int64, error) {
	p.members = set.AppendMembers(p.members[:0])
	est, err := p.eng.Estimate(p.members)
	return est, p.eng.ScaleOf(p.members), err
}

// makePartition estimates a node set and wraps it (no subgraph extraction;
// see cand); infeasible sets return an error. The set is referenced, not
// copied — callers passing scratch sets must pass a durable clone.
func (p *partitioner) makePartition(set sdf.NodeSet) (*cand, error) {
	est, scale, err := p.estimate(set)
	if err != nil {
		return nil, err
	}
	return &cand{set: set, est: est, scale: scale}, nil
}

// tryMergeSets evaluates the merge criterion on a candidate union given the
// combined TW of its constituents. It returns the merged partition when the
// merge is profitable, nil otherwise. union may be the p.union scratch: the
// returned partition owns an independent clone.
func (p *partitioner) tryMergeSets(union sdf.NodeSet, combinedTW float64) *cand {
	if !p.convex.IsConvex(union) {
		return nil
	}
	est, scale, err := p.estimate(union)
	if err != nil {
		return nil // SM violation or unschedulable: merge rejected
	}
	if est.TUS*float64(scale) >= combinedTW {
		return nil
	}
	return &cand{set: union.Clone(), est: est, scale: scale}
}

// computeBoundary fills pt.boundary: every node adjacent (either direction)
// to a member but outside the set.
func (p *partitioner) computeBoundary(pt *cand) {
	if pt.boundary.Cap() == 0 {
		pt.boundary = sdf.NewNodeSet(p.g.NumNodes())
	} else {
		pt.boundary.Reset()
	}
	pt.set.ForEach(func(m sdf.NodeID) {
		for _, v := range p.g.Succ(m) {
			if !pt.set.Has(v) {
				pt.boundary.Add(v)
			}
		}
		for _, v := range p.g.Pred(m) {
			if !pt.set.Has(v) {
				pt.boundary.Add(v)
			}
		}
	})
}

// install replaces the partitions at the given indices with the merged one,
// deriving the new partition's boundary bitset.
func (p *partitioner) install(merged *cand, victims ...int) int {
	for _, v := range victims {
		p.parts[v] = nil
	}
	p.computeBoundary(merged)
	p.parts = append(p.parts, merged)
	p.tws = append(p.tws, merged.tw())
	idx := len(p.parts) - 1
	merged.set.ForEach(func(n sdf.NodeID) { p.assigned[n] = idx })
	return idx
}

// singleton estimates one unassigned node alone, the seed of a merge window;
// a node that does not fit on the device by itself fails the run.
func (p *partitioner) singleton(id sdf.NodeID) (*cand, error) {
	part, err := p.makePartition(sdf.SingletonSet(p.g.NumNodes(), id))
	if err != nil {
		return nil, fmt.Errorf("partition: node %d (%s) does not fit on the device alone: %w",
			id, p.g.Nodes[id].Filter.Name, err)
	}
	return part, nil
}

// compact returns the live partitions.
func (p *partitioner) compact() []*cand {
	var out []*cand
	for _, pt := range p.parts {
		if pt != nil {
			out = append(out, pt)
		}
	}
	return out
}

// phase0SCC collapses every non-trivial strongly connected component
// (feedback loop) into an atomic partition; the quotient of convex
// partitions must be acyclic for pipelined execution.
func (p *partitioner) phase0SCC() error {
	for _, scc := range p.g.StronglyConnected() {
		if len(scc) < 2 {
			continue
		}
		set := sdf.NewNodeSet(p.g.NumNodes())
		for _, id := range scc {
			set.Add(id)
		}
		part, err := p.makePartition(set)
		if err != nil {
			return fmt.Errorf("partition: feedback loop %v does not fit in shared memory: %w", set, err)
		}
		p.install(part)
	}
	return nil
}

// phase1 merges filters within each innermost pipeline, chain by chain
// (Algorithm 1 lines 2-10): grow a window from the head; on the first failed
// merge, install the window and restart a fresh one at the failing node.
func (p *partitioner) phase1() error {
	for _, chain := range p.pipelineChains() {
		i := 0
		for i < len(chain) {
			if p.assigned[chain[i]] != -1 {
				i++
				continue
			}
			cur, err := p.singleton(chain[i])
			if err != nil {
				return err
			}
			j := i + 1
			for j < len(chain) && p.assigned[chain[j]] == -1 {
				if err := p.cancelled(); err != nil {
					return err
				}
				single, err := p.makePartition(sdf.SingletonSet(p.g.NumNodes(), chain[j]))
				if err != nil {
					return err
				}
				p.union.CopyFrom(cur.set)
				p.union.Add(chain[j])
				merged := p.tryMergeSets(p.union, cur.tw()+single.tw())
				if merged == nil {
					break
				}
				cur = merged
				j++
			}
			p.install(cur)
			i = j
		}
	}
	return nil
}

// pipelineChains groups nodes by innermost pipeline, ordered topologically
// along the chain.
func (p *partitioner) pipelineChains() [][]sdf.NodeID {
	order, err := p.g.TopoOrder()
	if err != nil {
		// Cyclic graphs: SCC phase already handled loops; order remaining by id.
		order = nil
		for _, n := range p.g.Nodes {
			order = append(order, n.ID)
		}
	}
	pos := make(map[sdf.NodeID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	byPipe := map[int][]sdf.NodeID{}
	for _, n := range p.g.Nodes {
		if n.Pipe >= 0 {
			byPipe[n.Pipe] = append(byPipe[n.Pipe], n.ID)
		}
	}
	pipes := make([]int, 0, len(byPipe))
	for id := range byPipe {
		pipes = append(pipes, id)
	}
	sort.Ints(pipes)
	var out [][]sdf.NodeID
	for _, id := range pipes {
		chain := byPipe[id]
		sort.Slice(chain, func(a, b int) bool { return pos[chain[a]] < pos[chain[b]] })
		out = append(out, chain)
	}
	return out
}

// phase2Remaining merges the nodes outside pipelines (splitters, joiners,
// bare filters), Algorithm 1 lines 13-20.
func (p *partitioner) phase2Remaining() error {
	for _, n := range p.g.Nodes {
		if p.assigned[n.ID] != -1 {
			continue
		}
		seed, err := p.singleton(n.ID)
		if err != nil {
			return err
		}
		cur := p.install(seed)
		for {
			mergedAny := false
			neighbors := p.unassignedNeighbors(p.parts[cur])
			for _, k := range neighbors {
				if err := p.cancelled(); err != nil {
					return err
				}
				single, err := p.makePartition(sdf.SingletonSet(p.g.NumNodes(), k))
				if err != nil {
					return err
				}
				p.union.CopyFrom(p.parts[cur].set)
				p.union.Add(k)
				if merged := p.tryMergeSets(p.union, p.parts[cur].tw()+single.tw()); merged != nil {
					cur = p.install(merged, cur)
					mergedAny = true
				}
			}
			if !mergedAny {
				break
			}
		}
	}
	return nil
}

// unassignedNeighbors returns the still-unassigned nodes on the partition's
// boundary, ascending (boundary iteration order).
func (p *partitioner) unassignedNeighbors(pt *cand) []sdf.NodeID {
	out := p.idScratch[:0]
	pt.boundary.ForEach(func(v sdf.NodeID) {
		if p.assigned[v] == -1 {
			out = append(out, v)
		}
	})
	p.idScratch = out
	return out
}

// phase3BoundMerging merges whole partitions in three rounds with the
// IO-bound-first priority of Algorithm 1 lines 23-31.
func (p *partitioner) phase3BoundMerging() error {
	type roundSpec struct{ candIO, partnerIO bool } // restrict to IO-bound lists?
	rounds := []roundSpec{
		{candIO: true, partnerIO: true},   // within L1
		{candIO: true, partnerIO: false},  // L1 against L1 ∪ L2
		{candIO: false, partnerIO: false}, // everything
	}
	for _, spec := range rounds {
		for {
			if err := p.cancelled(); err != nil {
				return err
			}
			mergedAny := false
			// Ascending execution time: smaller workloads merge first. The
			// parts change only at a merge, which restarts the scan, so one
			// partner order serves every candidate of the scan.
			partners := p.liveIndices(func(pt *cand) bool {
				return !spec.partnerIO || !pt.est.ComputeBound()
			})
			p.sortByTW(partners)
			cands := partners
			if spec.candIO != spec.partnerIO {
				cands = p.liveIndices(func(pt *cand) bool {
					return !spec.candIO || !pt.est.ComputeBound()
				})
				p.sortByTW(cands)
			}
			for _, ci := range cands {
				if p.parts[ci] == nil {
					continue
				}
				for _, pi := range partners {
					if err := p.cancelled(); err != nil {
						return err
					}
					if pi == ci || p.parts[pi] == nil || p.parts[ci] == nil {
						continue
					}
					a, b := p.parts[ci], p.parts[pi]
					if !a.boundary.Intersects(b.set) {
						continue // no edge links the two
					}
					p.union.CopyFrom(a.set)
					p.union.UnionWith(b.set)
					if merged := p.tryMergeSets(p.union, a.tw()+b.tw()); merged != nil {
						p.install(merged, ci, pi)
						mergedAny = true
						break
					}
				}
				if mergedAny {
					break // restart scan with updated lists, as in the paper
				}
			}
			if !mergedAny {
				break
			}
		}
	}
	return nil
}

// sortByTW orders partition indices by ascending TW.
func (p *partitioner) sortByTW(idx []int) {
	sort.Slice(idx, func(a, b int) bool { return p.tws[idx[a]] < p.tws[idx[b]] })
}

func (p *partitioner) liveIndices(keep func(*cand) bool) []int {
	out := make([]int, 0, len(p.parts))
	for i, pt := range p.parts {
		if pt != nil && keep(pt) {
			out = append(out, i)
		}
	}
	return out
}

// phase4Simultaneous attempts (1) three-way merges — a partition plus two of
// its neighbours at once, which can pay off even when no pairwise merge does
// — and (2) the all-nodes single partition, guaranteeing the multi-partition
// result is never worse than single-partition mapping (Algorithm 1 lines
// 33-35).
func (p *partitioner) phase4Simultaneous() error {
	for {
		if err := p.cancelled(); err != nil {
			return err
		}
		mergedAny := false
		live := p.liveIndices(func(*cand) bool { return true })
		for _, ci := range live {
			if p.parts[ci] == nil {
				continue
			}
			neigh := p.neighborPartitions(ci)
			for x := 0; x < len(neigh) && !mergedAny; x++ {
				for y := x + 1; y < len(neigh); y++ {
					if err := p.cancelled(); err != nil {
						return err
					}
					qi, ri := neigh[x], neigh[y]
					if p.parts[qi] == nil || p.parts[ri] == nil || p.parts[ci] == nil {
						continue
					}
					a, b, c := p.parts[ci], p.parts[qi], p.parts[ri]
					p.union.CopyFrom(a.set)
					p.union.UnionWith(b.set)
					p.union.UnionWith(c.set)
					if merged := p.tryMergeSets(p.union, a.tw()+b.tw()+c.tw()); merged != nil {
						p.install(merged, ci, qi, ri)
						mergedAny = true
						break
					}
				}
			}
			if mergedAny {
				break
			}
		}
		if !mergedAny {
			break
		}
	}

	// (2) all nodes at once.
	live := p.compact()
	if len(live) > 1 {
		all := sdf.NewNodeSet(p.g.NumNodes())
		for _, n := range p.g.Nodes {
			all.Add(n.ID)
		}
		var combined float64
		for _, pt := range live {
			combined += pt.tw()
		}
		if merged := p.tryMergeSets(all, combined); merged != nil {
			idxs := p.liveIndices(func(*cand) bool { return true })
			p.install(merged, idxs...)
		}
	}
	return nil
}

// neighborPartitions returns indices of partitions adjacent to parts[ci],
// ascending, read off the partition's boundary bitset.
func (p *partitioner) neighborPartitions(ci int) []int {
	var out []int
	p.parts[ci].boundary.ForEach(func(v sdf.NodeID) {
		idx := p.assigned[v]
		if idx < 0 || idx == ci || p.parts[idx] == nil {
			return
		}
		for _, seen := range out {
			if seen == idx {
				return
			}
		}
		out = append(out, idx)
	})
	sort.Ints(out)
	return out
}

// CheckConnected checks that every partition is connected. Exact cover and
// convexity are not walked here: a node owned twice or not at all is
// rejected by pdg.Build's owner array, and a path that leaves a partition
// and re-enters it is a cycle in the quotient, which pdg.Build rejects too —
// every consumer of a Result (a compile's pdg stage, driver.FromArtifact,
// Remap's re-merge) builds the PDG over it. The check reuses one scratch
// set, filled with a partition's members and cleared again.
func CheckConnected(g *sdf.Graph, parts []*Partition) error {
	set := sdf.NewNodeSet(g.NumNodes())
	checker := g.NewConvexChecker()
	for _, p := range parts {
		for _, m := range p.Members {
			set.Add(m)
		}
		if !checker.IsConnected(set) {
			return fmt.Errorf("partition: %s not connected", sdf.FormatMembers(p.Members))
		}
		set.Reset()
	}
	return nil
}

// sortParts orders partitions topologically by their earliest node in a
// parent topological order, for stable downstream numbering.
func sortParts(g *sdf.Graph, parts []*Partition) {
	order, err := g.TopoOrder()
	if err != nil {
		return
	}
	pos := make([]int32, len(order))
	for i, id := range order {
		pos[id] = int32(i)
	}
	first := func(p *Partition) int32 {
		best := int32(len(order))
		for _, m := range p.Members {
			best = min(best, pos[m])
		}
		return best
	}
	sort.SliceStable(parts, func(a, b int) bool { return first(parts[a]) < first(parts[b]) })
}
