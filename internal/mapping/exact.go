package mapping

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"streammap/internal/obs"
	"streammap/internal/topology"
)

// exactNodeCost converts Options.TimeBudget into the exact arm's node
// allowance: the measured cost of one search node on the paper apps'
// instances. The search stops on the count, never on a clock, so a truncated
// run is a pure function of the problem and the budget.
const exactNodeCost = 100 * time.Nanosecond

// exactPollMask spaces the search's context polls: cancellation is looked
// for once every 2^16 nodes.
const exactPollMask = 1<<16 - 1

// exactStats is what the exact arm reports on its map.exact span.
type exactStats struct {
	nodes         int64 // placements tried, cut or entered
	timeCut       int64 // of those, cut by the per-GPU times alone
	linkCut       int64 // of those, cut by a loaded link
	symmetrySkips int64 // placements never tried: an interchangeable subtree comes first
	budgetNodes   int64 // the allowance nodes is held to
	closed        bool  // the search ran to completion: the result is the proven optimum
	improved      bool  // a placement strictly better than the seed was found
}

// exactSearch is the exact arm of SolveCtx: a depth-first branch-and-bound
// over partition→GPU placements, partitions in decreasing T_i (Greedy's
// order). One evaluator holds the partial placement; placing a partition adds
// its time to its GPU, its transfers with already-placed partitions and its
// host I/O to their routes, and returning from the child takes exactly that
// back (GPU times are restored, not subtracted: no rounding residue). Times
// and transfer sizes are non-negative, so the partial objective only grows
// along a branch and a child whose GPU times or loaded links already reach
// thr — the incumbent minus the 1e-9 every mapper's improvement must clear —
// holds no placement worth having; ΣT/G bounds the root the same way.
//
// Symmetry: two child subtrees of one switch with the same signature (shape,
// and both directions' bandwidth and latency on every edge) are exchanged by
// an automorphism of the tree that preserves every route's cost. While both
// are entirely empty that automorphism also fixes the partial placement, so
// a placement into the later one mirrors a placement into the earlier: only
// the first empty subtree of each class is entered. DESIGN.md S5 has the
// argument.
type exactSearch struct {
	ctx   context.Context
	ev    *evaluator
	order []int   // partitions in placement order
	thr   float64 // what a placement's objective must stay below; ev.caps holds it as link loads
	best  []int   // the best complete placement found; nil while the seed stands

	path     [][]int32 // GPU -> its tree nodes, leaf up to the root's child
	prevTwin []int32   // tree node -> nearest earlier sibling of the same signature, or -1
	placed   []int32   // tree node -> partitions placed in its subtree

	stopped bool // out of budget, or cancelled
	st      exactStats
}

// newExactSearch prepares the search for a placement strictly better than
// incumbent, over an empty partial placement.
func newExactSearch(ctx context.Context, p *Problem, incumbent float64, budgetNodes int64) *exactSearch {
	ev := newEvaluator(p)
	s := &exactSearch{
		ctx:   ctx,
		ev:    ev,
		order: longestFirst(ev.times),
		thr:   incumbent - 1e-9,
		st:    exactStats{budgetNodes: budgetNodes},
	}
	for i := range ev.gpuOf {
		ev.gpuOf[i] = -1
	}
	ev.setCaps(s.thr)

	t := p.Topo
	sig := subtreeSignatures(t)
	s.prevTwin = make([]int32, t.NumNodes())
	s.placed = make([]int32, t.NumNodes())
	for node := range s.prevTwin {
		s.prevTwin[node] = -1
		for sib := node - 1; sib > 0; sib-- {
			if t.ParentOf(sib) == t.ParentOf(node) && sig[sib] == sig[node] {
				s.prevTwin[node] = int32(sib)
				break
			}
		}
	}
	s.path = make([][]int32, t.NumGPUs())
	for k := range s.path {
		for node := t.EndpointNode(k); node > 0; node = t.ParentOf(node) {
			s.path[k] = append(s.path[k], int32(node))
		}
	}
	return s
}

// subtreeSignatures returns, per tree node, a canonical rendering of the
// subtree below it and the edge above it: whether the node is a GPU, both
// directed links' bandwidth and latency, and the children's signatures
// sorted. Equal signatures under one parent mean an automorphism exchanges
// the two subtrees and preserves every route's link parameters.
func subtreeSignatures(t *topology.Tree) []string {
	n := t.NumNodes()
	isGPU := make([]bool, n)
	for k := 0; k < t.NumGPUs(); k++ {
		isGPU[t.EndpointNode(k)] = true
	}
	edge := make([]strings.Builder, n) // the links above each node, in link-id order
	for _, l := range t.Links() {
		b := &edge[l.Child]
		b.WriteString(strconv.FormatFloat(t.LinkBandwidthGBs(l.ID), 'g', -1, 64))
		b.WriteByte('/')
		b.WriteString(strconv.FormatFloat(t.LinkLatencyUS(l.ID), 'g', -1, 64))
		b.WriteByte(' ')
	}
	children := make([][]string, n)
	sig := make([]string, n)
	// Parents precede their children, so one reverse pass sees every node
	// after all of its children.
	for node := n - 1; node >= 0; node-- {
		sort.Strings(children[node])
		kind := "s"
		if isGPU[node] {
			kind = "g"
		}
		sig[node] = kind + " " + edge[node].String() + "(" + strings.Join(children[node], ",") + ")"
		if node > 0 {
			children[t.ParentOf(node)] = append(children[t.ParentOf(node)], sig[node])
		}
	}
	return sig
}

// mirrored reports whether placing onto GPU k mirrors a placement the search
// tries anyway: some subtree k lies in is still empty and so is its nearest
// earlier twin. (Twins fill in order, so the nearest one speaks for all.)
func (s *exactSearch) mirrored(k int) bool {
	for _, node := range s.path[k] {
		if s.placed[node] != 0 {
			return false // every subtree further up holds this one's partitions
		}
		if tw := s.prevTwin[node]; tw >= 0 && s.placed[tw] == 0 {
			return true
		}
	}
	return false
}

// attach adds (sign +1) or takes back (sign -1) the link load partition i
// brings to GPU k: its transfers with partitions already placed, and its
// host I/O.
func (ev *evaluator) attach(i, k int, sign int64) {
	p, t, g := ev.p, ev.p.Topo, ev.gpus
	B := sign * int64(p.FragmentIters)
	for _, ei := range ev.incident[i] {
		e := &p.PDG.Edges[ei]
		if e.From == i {
			if o := ev.gpuOf[e.To]; o >= 0 {
				addLoad(ev.loads, ev.routes[k*g+o], e.Bytes*B)
			}
		} else if o := ev.gpuOf[e.From]; o >= 0 {
			addLoad(ev.loads, ev.routes[o*g+k], e.Bytes*B)
		}
	}
	if hb := p.PDG.HostInBytes[i] * B; hb != 0 {
		addLoad(ev.loads, t.Route(topology.Host, k), hb)
	}
	if hb := p.PDG.HostOutBytes[i] * B; hb != 0 {
		addLoad(ev.loads, t.Route(k, topology.Host), hb)
	}
}

// place extends the partial placement by the partition at depth d, trying
// every GPU, and recurses on the children that stay below thr.
func (s *exactSearch) place(d int) {
	ev, t := s.ev, s.ev.p.Topo
	if d == len(s.order) {
		s.best = append(s.best[:0], ev.gpuOf...)
		s.thr = linkMax(t, ev.loads, gpuMax(ev.gpuT)) - 1e-9
		ev.setCaps(s.thr)
		s.st.improved = true
		return
	}
	i := s.order[d]
	for k := 0; k < ev.gpus; k++ {
		if s.mirrored(k) {
			s.st.symmetrySkips++
			continue
		}
		if s.st.nodes >= s.st.budgetNodes || s.st.nodes&exactPollMask == exactPollMask && s.ctx.Err() != nil {
			s.stopped = true
			return
		}
		s.st.nodes++
		was := ev.gpuT[k]
		ev.gpuT[k] = was + ev.times[i]
		if gpuMax(ev.gpuT) >= s.thr {
			s.st.timeCut++
			ev.gpuT[k] = was
			continue
		}
		ev.attach(i, k, 1)
		if under(ev.loads, ev.caps) {
			ev.gpuOf[i] = k
			for _, node := range s.path[k] {
				s.placed[node]++
			}
			s.place(d + 1)
			for _, node := range s.path[k] {
				s.placed[node]--
			}
			ev.gpuOf[i] = -1
		} else {
			s.st.linkCut++
		}
		ev.attach(i, k, -1)
		ev.gpuT[k] = was
		if s.stopped {
			return
		}
	}
}

// run searches from the empty placement and returns the best complete
// placement strictly below the incumbent, nil when there is none (or none
// was reached before the search stopped).
func (s *exactSearch) run() []int {
	sum := 0.0
	for _, ti := range s.ev.times {
		sum += ti
	}
	if sum/float64(s.ev.gpus) < s.thr {
		s.place(0)
	}
	s.st.closed = !s.stopped
	return s.best
}

// solveExact runs the exact arm seeded with the heuristic incumbent, as a
// map.exact span under ctx's current span. It returns the seed's own
// assignment — re-scored, method "ilp" — when nothing strictly better
// exists, the placement proven optimal (or the best reached inside the node
// budget) otherwise.
func solveExact(ctx context.Context, p *Problem, seed *Assignment, opts Options) *Assignment {
	_, span := obs.StartSpan(ctx, "map.exact")
	s := newExactSearch(ctx, p, seed.Objective, int64(opts.TimeBudget/exactNodeCost))
	gpuOf := s.run()
	span.Notef("nodes=%d time_cut=%d link_cut=%d symmetry_skips=%d closed=%t improved=%t budget_nodes=%d",
		s.st.nodes, s.st.timeCut, s.st.linkCut, s.st.symmetrySkips, s.st.closed, s.st.improved, s.st.budgetNodes)
	span.End()
	if gpuOf == nil {
		gpuOf = seed.GPUOf
	}
	return Evaluate(p, gpuOf, "ilp")
}
