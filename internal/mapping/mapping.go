// Package mapping assigns partitions to GPUs. It solves the paper's
// communication-aware formulation (§3.2.2, Eq. III.1–III.7) over the PCIe
// tree topology: an exact objective evaluator shared by all mappers, a
// greedy/local-search heuristic, an exact branch-and-bound on that evaluator
// — seeded with the local optimum, and run on instances up to the exact-size
// threshold — and the previous work's communication-unaware baseline. The
// exact arm proves the paper apps' instances optimal in microseconds
// (FFT:1024 and MatMul3:7 included), so what it is held to is a node count,
// not a clock: see Options.TimeBudget.
//
// The objective is Tmax — the largest per-fragment busy time of any GPU or
// any directed PCIe link — which bounds the steady-state throughput of the
// pipelined multi-GPU execution (§3.2.3).
package mapping

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"streammap/internal/obs"
	"streammap/internal/pdg"
	"streammap/internal/topology"
)

// Problem is one mapping instance.
type Problem struct {
	PDG  *pdg.PDG
	Topo *topology.Tree

	// FragmentIters is B: parent-graph steady-state iterations per pipeline
	// fragment. Workloads and transfers are scaled by B.
	FragmentIters int

	// NumSMs is the number of streaming multiprocessors per GPU; a fragment's
	// blocks spread across them, dividing the per-SM workload estimate.
	// Zero means 1.
	NumSMs int

	// LaunchUS is the fixed per-kernel-invocation overhead added to each
	// partition's per-fragment time.
	LaunchUS float64

	// ViaHost forces all inter-GPU transfers through the host (the previous
	// work's execution model) instead of peer-to-peer.
	ViaHost bool

	// TimesUS, when set, overrides the derived per-fragment partition times
	// with exact estimates (e.g., the wave-quantized kernel-time law the
	// execution engine follows). Indexed like the PDG's partitions.
	TimesUS []float64
}

// PartTimeUS returns T_i: partition i's estimated busy time per fragment.
func (p *Problem) PartTimeUS(i int) float64 {
	if p.TimesUS != nil {
		return p.TimesUS[i]
	}
	sms := p.NumSMs
	if sms <= 0 {
		sms = 1
	}
	return p.PDG.WorkloadUS(i)*float64(p.FragmentIters)/float64(sms) + p.LaunchUS
}

// Assignment is a full mapping with its exact evaluation.
type Assignment struct {
	GPUOf     []int // partition -> GPU index
	Method    string
	Objective float64   // Tmax (µs per fragment)
	GPUTimes  []float64 // per GPU
	LinkTimes []float64 // per directed link
	LinkLoads []int64   // bytes per fragment per directed link
}

// Clone deep-copies the assignment vector (evaluation fields are rebuilt by
// Evaluate).
func (a *Assignment) Clone() *Assignment {
	return &Assignment{GPUOf: append([]int(nil), a.GPUOf...), Method: a.Method}
}

// Evaluate scores an assignment exactly: per-GPU sums of partition times and
// per-link loads with T_comm = Lat + D/BW on loaded links (Eq. III.3). The
// returned Assignment is fully populated.
func Evaluate(p *Problem, gpuOf []int, method string) *Assignment {
	t := p.Topo
	g := t.NumGPUs()
	a := &Assignment{
		GPUOf:     append([]int(nil), gpuOf...),
		Method:    method,
		GPUTimes:  make([]float64, g),
		LinkTimes: make([]float64, t.NumLinks()),
		LinkLoads: make([]int64, t.NumLinks()),
	}
	B := int64(p.FragmentIters)
	for i := 0; i < p.PDG.NumParts(); i++ {
		a.GPUTimes[gpuOf[i]] += p.PartTimeUS(i)
	}
	addRoute := func(route []int, bytes int64) {
		for _, l := range route {
			a.LinkLoads[l] += bytes
		}
	}
	for _, e := range p.PDG.Edges {
		gs, gd := gpuOf[e.From], gpuOf[e.To]
		if gs == gd {
			continue
		}
		bytes := e.Bytes * B
		if p.ViaHost {
			addRoute(t.RouteViaHost(gs, gd), bytes)
		} else {
			addRoute(t.Route(gs, gd), bytes)
		}
	}
	for i := 0; i < p.PDG.NumParts(); i++ {
		if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
			addRoute(t.Route(topology.Host, gpuOf[i]), hb)
		}
		if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
			addRoute(t.Route(gpuOf[i], topology.Host), hb)
		}
	}
	obj := gpuMax(a.GPUTimes)
	for l, load := range a.LinkLoads {
		if load > 0 {
			a.LinkTimes[l] = linkTimeUS(t, l, load)
			obj = fmax(obj, a.LinkTimes[l])
		}
	}
	a.Objective = obj
	return a
}

// fmax is max(a, b) by plain comparison. Every fold of the objective starts
// from +0 and runs over finite values (GPU sums are ≥ minus a rounding
// residue, loaded links' times are > 0), where this returns the same bits as
// math.Max — without the NaN and signed-zero handling that keeps math.Max
// from inlining into the descents' inner loops.
func fmax(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// gpuMax is the compute part of Tmax: the largest per-GPU time, at least 0.
// It is a lower bound of the objective that needs no link load.
func gpuMax(gpuT []float64) float64 {
	obj := 0.0
	for _, gt := range gpuT {
		obj = fmax(obj, gt)
	}
	return obj
}

// linkTimeUS is T_comm of Eq. III.3 for a loaded link.
func linkTimeUS(t *topology.Tree, l int, load int64) float64 {
	return t.LinkLatencyUS(l) + float64(load)/(t.LinkBandwidthGBs(l)*1e3)
}

// linkMax folds the loaded links' times into obj, completing Tmax.
func linkMax(t *topology.Tree, loads []int64, obj float64) float64 {
	for l, load := range loads {
		if load > 0 {
			obj = fmax(obj, linkTimeUS(t, l, load))
		}
	}
	return obj
}

// Greedy is longest-processing-time-first on the exact objective: partitions
// in decreasing T_i, each placed on the GPU that minimizes the evaluated
// Tmax so far. Deterministic.
func Greedy(p *Problem) *Assignment {
	gpuOf := make([]int, p.PDG.NumParts())
	for i := range gpuOf {
		gpuOf[i] = -1
	}
	ev := newEvaluator(p)
	for _, pi := range longestFirst(ev.times) {
		best, bestObj := 0, math.Inf(1)
		for k := 0; k < p.Topo.NumGPUs(); k++ {
			gpuOf[pi] = k
			obj := ev.reset(gpuOf, bestObj)
			if obj < bestObj {
				best, bestObj = k, obj
			}
		}
		gpuOf[pi] = best
	}
	return Evaluate(p, gpuOf, "greedy")
}

// longestFirst returns the partitions in decreasing T_i, ties in index
// order: the placement order of Greedy and of the exact arm.
func longestFirst(times []float64) []int {
	order := make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return times[order[a]] > times[order[b]]
	})
	return order
}

// deltaDescendEvalBudget caps candidate evaluations per descent. Small
// instances converge long before it; in the multilevel regime the swap
// neighborhood is millions of candidates per sweep and the sweep count until
// quiescence is unbounded, so each seed gets a fixed evaluation allowance (a
// count, not a clock: the result stays deterministic and
// machine-independent). At ~2k partitions this is a few full sweeps, which
// is where nearly all of the improvement lands.
const deltaDescendEvalBudget = 8_000_000

// evaluator is the mappers' working scorer: it holds the per-GPU times and
// per-link loads of one assignment (gpuOf), rebuilt from scratch by reset
// and updated incrementally by the two independent halves of a
// single-partition move: moveTime, O(1), and reroute, O(deg(i)·route), which
// a descent applies to a scratch copy of the loads so a rejected candidate
// leaves nothing to undo there. Loads are exact (int64); gpuT is float and
// accumulates rounding residue across rejected candidates, so descents
// rebuild (reset) on every accepted improvement — drift never crosses an
// accept. Right after reset the state is Evaluate's own (same summation
// order, exact loads), so the objective reset returns is Evaluate's
// Objective bit for bit; Evaluate stays the allocating oracle that results
// are re-scored by. Not safe for concurrent use; each descent owns one.
type evaluator struct {
	p        *Problem
	times    []float64 // PartTimeUS table
	gpuT     []float64
	loads    []int64
	trial    []int64   // loads of the candidate being scored
	incident [][]int32 // partition -> indices into PDG.Edges
	gpuOf    []int

	// The route between GPUs gs and gd under p.ViaHost, at [gs*gpus+gd]
	// (nil on the diagonal: co-located partitions transfer nothing).
	gpus   int
	routes [][]int
}

func newEvaluator(p *Problem) *evaluator {
	t, g := p.Topo, p.Topo.NumGPUs()
	ev := &evaluator{
		p:        p,
		times:    make([]float64, p.PDG.NumParts()),
		gpuT:     make([]float64, g),
		loads:    make([]int64, t.NumLinks()),
		trial:    make([]int64, t.NumLinks()),
		incident: make([][]int32, p.PDG.NumParts()),
		gpuOf:    make([]int, p.PDG.NumParts()),
		gpus:     g,
		routes:   make([][]int, g*g),
	}
	for i := range ev.times {
		ev.times[i] = p.PartTimeUS(i)
	}
	for ei, e := range p.PDG.Edges {
		ev.incident[e.From] = append(ev.incident[e.From], int32(ei))
		ev.incident[e.To] = append(ev.incident[e.To], int32(ei))
	}
	for gs := 0; gs < g; gs++ {
		for gd := 0; gd < g; gd++ {
			switch {
			case gs == gd:
			case p.ViaHost:
				ev.routes[gs*g+gd] = t.RouteViaHost(gs, gd)
			default:
				ev.routes[gs*g+gd] = t.Route(gs, gd)
			}
		}
	}
	return ev
}

// reset rebuilds the state for an assignment from scratch and returns its
// objective. Partitions assigned -1, and the transfers touching them, are
// skipped (Greedy scores partial placements). When the per-GPU times alone
// already reach cut it returns that lower bound (≥ cut) instead and never
// walks the edges, leaving the loads stale: a caller with a finite cut only
// asks whether the objective is below it, and one that goes on to move
// partitions passes math.Inf(1), which always yields the exact objective.
func (ev *evaluator) reset(gpuOf []int, cut float64) float64 {
	copy(ev.gpuOf, gpuOf)
	for i := range ev.gpuT {
		ev.gpuT[i] = 0
	}
	for i, k := range ev.gpuOf {
		if k >= 0 {
			ev.gpuT[k] += ev.times[i]
		}
	}
	obj := gpuMax(ev.gpuT)
	if obj >= cut {
		return obj
	}
	for i := range ev.loads {
		ev.loads[i] = 0
	}
	p, t := ev.p, ev.p.Topo
	B := int64(p.FragmentIters)
	for _, e := range p.PDG.Edges {
		if gs, gd := ev.gpuOf[e.From], ev.gpuOf[e.To]; gs >= 0 && gd >= 0 {
			addLoad(ev.loads, ev.routes[gs*ev.gpus+gd], e.Bytes*B)
		}
	}
	for i, k := range ev.gpuOf {
		if k < 0 {
			continue
		}
		if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
			addLoad(ev.loads, t.Route(topology.Host, k), hb)
		}
		if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
			addLoad(ev.loads, t.Route(k, topology.Host), hb)
		}
	}
	return linkMax(t, ev.loads, obj)
}

// addLoad adds bytes (negative to subtract) to every link of a route.
func addLoad(loads []int64, route []int, bytes int64) {
	for _, l := range route {
		loads[l] += bytes
	}
}

// moveTime is the per-GPU half of a move: partition i's time leaves GPU
// from and lands on GPU to.
func (ev *evaluator) moveTime(i, from, to int) {
	ev.gpuT[from] -= ev.times[i]
	ev.gpuT[to] += ev.times[i]
}

// reroute is the link half of a move: it adds to loads the change when
// partition i goes from GPU from to GPU to, its incident transfers and host
// I/O re-routed, every other partition placed as gpuOf says. gpuOf itself is
// the caller's to update.
func (ev *evaluator) reroute(loads []int64, i, from, to int) {
	p, t, g := ev.p, ev.p.Topo, ev.gpus
	B := int64(p.FragmentIters)
	for _, ei := range ev.incident[i] {
		e := &p.PDG.Edges[ei]
		bytes := e.Bytes * B
		if e.From == i {
			o := ev.gpuOf[e.To]
			addLoad(loads, ev.routes[from*g+o], -bytes)
			addLoad(loads, ev.routes[to*g+o], bytes)
		} else {
			o := ev.gpuOf[e.From]
			addLoad(loads, ev.routes[o*g+from], -bytes)
			addLoad(loads, ev.routes[o*g+to], bytes)
		}
	}
	if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
		addLoad(loads, t.Route(topology.Host, from), -hb)
		addLoad(loads, t.Route(topology.Host, to), hb)
	}
	if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
		addLoad(loads, t.Route(from, topology.Host), -hb)
		addLoad(loads, t.Route(to, topology.Host), hb)
	}
}

// linksBelow reports whether every loaded link's time is below thr — with
// gpuMax below thr too, that the objective is — stopping at the first that
// is not.
func linksBelow(t *topology.Tree, loads []int64, thr float64) bool {
	for l, load := range loads {
		if load > 0 && !(linkTimeUS(t, l, load) < thr) {
			return false
		}
	}
	return true
}

// localSearchCtx refines an assignment with single-partition moves and
// pairwise swaps (descendDelta) from several deterministic seeds, on up to
// workers goroutines, and returns the best. Each descent is deterministic
// and the winner is selected in fixed seed order, so the result is the same
// at any worker count. Cancelling the context cuts the descents short
// (SolveCtx then reports the cancellation). greedy is the first seed. The
// second result names the seed whose descent won.
func localSearchCtx(ctx context.Context, p *Problem, workers int, greedy *Assignment) (*Assignment, string) {
	seeds := coldSeeds(p, greedy.GPUOf)

	var results [len(seedNames)]*Assignment
	if workers > 1 {
		var wg sync.WaitGroup
		for i := range seeds {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = descent(ctx, p, seedNames[i], seeds[i])
			}(i)
		}
		wg.Wait()
	} else {
		for i := range seeds {
			results[i] = descent(ctx, p, seedNames[i], seeds[i])
		}
	}

	win := 0
	for i, r := range results {
		if r.Objective < results[win].Objective {
			win = i
		}
	}
	results[win].Method = "local"
	return results[win], seedNames[win]
}

// seedNames names local search's cold seeds, in descent (and tie-break)
// order.
var seedNames = [...]string{"greedy", "round-robin", "block"}

// coldSeeds returns local search's starting assignments: the greedy
// placement, and the topological order dealt round-robin and cut into
// contiguous blocks.
func coldSeeds(p *Problem, greedy []int) [len(seedNames)][]int {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	rr := make([]int, n)
	blk := make([]int, n)
	for pos, pi := range p.PDG.Topo {
		rr[pi] = pos % g
		blk[pi] = pos * g / n
	}
	return [...][]int{greedy, rr, blk}
}

// Refine descends from a caller-supplied seed to a local optimum with local
// search's own descent — only the multi-seed fan-out is skipped, which is
// what makes a warm start cheap: from a near-optimal seed the descent
// converges in a round or two instead of re-exploring from three cold seeds.
// The driver's remap flow seeds this with the pre-failure assignment
// projected onto the surviving devices.
func Refine(ctx context.Context, p *Problem, seed []int) *Assignment {
	a := descent(ctx, p, "warm", seed)
	a.Method = "local"
	return a
}

// descentStats is what one descent reports on its map.descent span.
type descentStats struct {
	candidates   int  // moves and swaps scored
	timeRejected int  // of those, rejected by the per-GPU time bound alone
	accepts      int  // improvements adopted
	budgetCut    bool // stopped by deltaDescendEvalBudget, not by convergence
}

// descent runs descendDelta from one seed, recorded as a map.descent span
// under ctx's current span.
func descent(ctx context.Context, p *Problem, seed string, gpuOf []int) *Assignment {
	_, span := obs.StartSpan(ctx, "map.descent")
	a, st := descendDelta(ctx, p, gpuOf)
	span.Notef("seed=%s candidates=%d time_rejected=%d accepts=%d budget_cut=%t",
		seed, st.candidates, st.timeRejected, st.accepts, st.budgetCut)
	span.End()
	return a
}

// descendDelta is the mapper's one descent, at every instance size: rounds
// of single-partition moves, then pairwise swaps, each candidate accepted
// when it lowers the objective by more than 1e-9, scored incrementally under
// the deltaDescendEvalBudget allowance. A candidate is tried in two steps:
// its O(1) per-GPU time updates first — the largest GPU time is a lower
// bound of the objective, so one at or above the threshold rejects the
// candidate before any link load is computed — and only for survivors the
// O(deg·route) re-routing, on a scratch copy of the loads, and the link
// terms. A rejected candidate's time updates are undone in the order a
// whole-move undo would apply them, survivor or not: the rounding residue
// they leave in gpuT is what later candidates are scored against. Every
// candidate counts against the budget, filtered or not. The descent
// therefore visits exactly the assignments an unfiltered one would;
// DESIGN.md S5 has the argument and what the residue can and cannot move,
// the test-only descendDeltaUnfiltered and descendRescan are the referees.
func descendDelta(ctx context.Context, p *Problem, gpuOf []int) (*Assignment, descentStats) {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	var st descentStats
	ev := newEvaluator(p)
	cur := ev.reset(gpuOf, math.Inf(1)) // the exact objective: see evaluator
	accept := func() {
		st.accepts++
		cur = ev.reset(ev.gpuOf, math.Inf(1))
	}
	finish := func(cut bool) (*Assignment, descentStats) {
		st.budgetCut = cut
		return Evaluate(p, ev.gpuOf, "local"), st
	}
	for ctx.Err() == nil {
		improved := false
		// Moves.
		for i := 0; i < n; i++ {
			for k := 0; k < g; k++ {
				old := ev.gpuOf[i]
				if k == old {
					continue
				}
				st.candidates++
				thr := cur - 1e-9
				ev.moveTime(i, old, k)
				if gpuMax(ev.gpuT) >= thr {
					st.timeRejected++
					ev.moveTime(i, k, old)
					continue
				}
				copy(ev.trial, ev.loads)
				ev.reroute(ev.trial, i, old, k)
				ev.gpuOf[i] = k
				if linksBelow(p.Topo, ev.trial, thr) {
					accept()
					improved = true
				} else {
					ev.gpuOf[i] = old
					ev.moveTime(i, k, old)
				}
			}
		}
		// Swaps.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return finish(false)
			}
			if st.candidates > deltaDescendEvalBudget {
				return finish(true)
			}
			for j := i + 1; j < n; j++ {
				gi, gj := ev.gpuOf[i], ev.gpuOf[j]
				if gi == gj {
					continue
				}
				st.candidates++
				thr := cur - 1e-9
				ev.moveTime(i, gi, gj)
				ev.moveTime(j, gj, gi)
				if gpuMax(ev.gpuT) >= thr {
					st.timeRejected++
					ev.moveTime(j, gi, gj)
					ev.moveTime(i, gj, gi)
					continue
				}
				copy(ev.trial, ev.loads)
				ev.reroute(ev.trial, i, gi, gj)
				ev.gpuOf[i] = gj // j's transfers with i route to i's new GPU
				ev.reroute(ev.trial, j, gj, gi)
				ev.gpuOf[j] = gi
				if linksBelow(p.Topo, ev.trial, thr) {
					accept()
					improved = true
				} else {
					ev.gpuOf[i], ev.gpuOf[j] = gi, gj
					ev.moveTime(j, gi, gj)
					ev.moveTime(i, gj, gi)
				}
			}
		}
		if !improved {
			return finish(false)
		}
		if st.candidates > deltaDescendEvalBudget {
			return finish(true)
		}
	}
	return finish(false)
}

// PrevWork is the previous work's mapper: workload balancing only (LPT on
// T_i, ignoring all communication) and host-staged transfers, reflecting its
// hardware-agnostic, communication-unaware design. The returned assignment
// is evaluated under the via-host execution model regardless of p.ViaHost.
func PrevWork(p *Problem) *Assignment {
	q := *p
	q.ViaHost = true
	return Evaluate(&q, lptPlacement(p), "prevwork")
}

// Options tunes SolveCtx.
type Options struct {
	// ILPMaxParts caps the instance size handed to the exact solver; larger
	// instances use local search only (see DESIGN.md S5). Default 24.
	ILPMaxParts int
	// TimeBudget is the exact solver's work allowance, spent as a node count
	// — one search node per 100 ns of it, the measured cost of a node — and
	// never read off a clock: a search it cuts short returns the same
	// assignment on any machine under any load. Default 10s (the paper
	// reports <10s with Gurobi), i.e. 10^8 nodes.
	TimeBudget time.Duration
	// ForceILP runs the exact solver regardless of size.
	ForceILP bool
	// Workers bounds local search's concurrency; 0 or 1 keeps the seed
	// descents serial.
	Workers int
}

// Normalized returns the options with every default filled in; artifact
// export bakes normalized options into the wire form so a zero-value
// request and its explicit-default twin export identically.
func (o Options) Normalized() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.ILPMaxParts == 0 {
		o.ILPMaxParts = 24
	}
	if o.TimeBudget == 0 {
		o.TimeBudget = 10 * time.Second
	}
	return o
}
