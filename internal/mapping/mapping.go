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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	// fragment. Transfers are scaled by B.
	FragmentIters int

	// ViaHost forces all inter-GPU transfers through the host (the previous
	// work's execution model) instead of peer-to-peer.
	ViaHost bool

	// TimesUS is T_i per partition: its busy time per fragment (a B-iteration
	// fragment's kernel time under the wave-quantized law the execution
	// engine follows, launch included). Indexed like the PDG's partitions.
	TimesUS []float64
}

// PartTimeUS returns T_i: partition i's estimated busy time per fragment.
func (p *Problem) PartTimeUS(i int) float64 { return p.TimesUS[i] }

// Assignment is a full mapping with its exact objective.
type Assignment struct {
	GPUOf     []int // partition -> GPU index
	Method    string
	Objective float64 // Tmax (µs per fragment)
}

// Evaluate scores an assignment exactly: per-GPU sums of partition times and
// per-link loads with T_comm = Lat + D/BW on loaded links (Eq. III.3). It is
// the evaluator's from-scratch rebuild (reset) under no cut.
func Evaluate(p *Problem, gpuOf []int, method string) *Assignment {
	return newEvaluator(p).assignment(gpuOf, method)
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

// reaches reports whether gpuMax(gpuT) >= thr with GPU a's time read as ta
// and GPU b's as tb.
func reaches(gpuT []float64, a int, ta float64, b int, tb float64, thr float64) bool {
	for k, gt := range gpuT {
		if gt >= thr && k != a && k != b {
			return true
		}
	}
	return ta >= thr || tb >= thr || 0 >= thr
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
// Tmax so far. Deterministic. A trial scores to the bits reset would return
// for the partial placement: the placed partitions' loads plus what attach
// brings, and each GPU's members' T_i folded in index order, from cached
// prefix sums.
func Greedy(p *Problem) *Assignment {
	ev := newEvaluator(p)
	for i := range ev.gpuOf {
		ev.gpuOf[i] = -1
	}
	members := make([][]int, ev.gpus)  // GPU -> its partitions, ascending
	sums := make([][]float64, ev.gpus) // GPU -> [m]: T_i folded over its first m members
	for k := range sums {
		sums[k] = []float64{0}
	}
	for _, pi := range longestFirst(ev.times) {
		best, bestObj, bestPos := 0, math.Inf(1), 0
		for k := range members {
			pos, _ := slices.BinarySearch(members[k], pi)
			trial := sums[k][pos] + ev.times[pi]
			for _, m := range members[k][pos:] {
				trial += ev.times[m]
			}
			obj := trial // not below GPU k's fold without pi: T_i ≥ 0, rounding is monotone
			for _, s := range sums {
				obj = fmax(obj, s[len(s)-1])
			}
			if obj >= bestObj {
				continue
			}
			ev.attach(pi, k, 1)
			obj = linkMax(p.Topo, ev.loads, obj)
			ev.attach(pi, k, -1)
			if obj < bestObj {
				best, bestObj, bestPos = k, obj, pos
			}
		}
		ev.attach(pi, best, 1)
		ev.gpuOf[pi] = best
		members[best] = slices.Insert(members[best], bestPos, pi)
		sums[best] = append(sums[best], 0)
		for m := bestPos; m < len(members[best]); m++ {
			sums[best][m+1] = sums[best][m] + ev.times[members[best][m]]
		}
	}
	return ev.assignment(ev.gpuOf, "greedy")
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

// deltaDescendEvalBudget caps candidate evaluations per descent: a count,
// not a clock, so results are machine-independent. Small instances converge
// long before it; at 1406 partitions a swap sweep is ~7·10⁵ candidates and the
// round-robin and block seeds are still accepting when it cuts them.
const deltaDescendEvalBudget = 8_000_000

// evaluator is the mappers' working scorer: it holds the per-GPU times and
// per-link loads of one assignment (gpuOf), rebuilt from scratch by reset and
// updated incrementally by the two independent halves of a single-partition
// move: the O(1) time update of the two GPUs, and reroute, O(deg(i)·route),
// which the descent runs once per row of its move table, not per candidate.
// Loads are exact (int64); gpuT is float and accumulates rounding residue
// across rejected candidates, so the descent restores reset's index-order
// folds on every accept: drift never crosses one, and the state is then
// reset's own, so the objective read from it is Evaluate's Objective bit for
// bit. Not safe for concurrent use; each descent owns one.
type evaluator struct {
	p        *Problem
	times    []float64 // PartTimeUS table
	gpuT     []float64
	loads    []int64
	caps     []int64   // per link: the smallest load whose time reaches the threshold (setCaps)
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
		caps:     make([]int64, t.NumLinks()),
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
// objective, skipping partitions assigned -1 and the transfers touching
// them (Greedy's scoring reproduces these partial bits). When the per-GPU
// times alone already reach cut it returns that lower bound (≥ cut) instead
// and never walks the edges, leaving the loads stale: a caller with a finite
// cut only asks whether the objective is below it, and one that goes on to
// move partitions passes math.Inf(1), which always yields the exact objective.
func (ev *evaluator) reset(gpuOf []int, cut float64) float64 {
	copy(ev.gpuOf, gpuOf)
	clear(ev.gpuT) // each GPU's placed partitions' T_i, folded in index order
	for i, k := range ev.gpuOf {
		if k >= 0 {
			ev.gpuT[k] += ev.times[i]
		}
	}
	obj := gpuMax(ev.gpuT)
	if obj >= cut {
		return obj
	}
	clear(ev.loads)
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

// assignment rebuilds the state for gpuOf (reset, no cut) and returns it
// as an Assignment with its exact objective.
func (ev *evaluator) assignment(gpuOf []int, method string) *Assignment {
	obj := ev.reset(gpuOf, math.Inf(1))
	return &Assignment{GPUOf: slices.Clone(ev.gpuOf), Method: method, Objective: obj}
}

// addLoad adds bytes (negative to subtract) to every link of a route.
func addLoad(loads []int64, route []int, bytes int64) {
	for _, l := range route {
		loads[l] += bytes
	}
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

// setCaps sets every link's cap for thr (linkCap).
func (ev *evaluator) setCaps(thr float64) {
	for l := range ev.caps {
		ev.caps[l] = linkCap(ev.p.Topo, l, thr)
	}
}

// linkCap returns the smallest load ≥ 1 whose linkTimeUS on link l reaches
// thr (math.MaxInt64 if no smaller one does): linkTimeUS is monotone in the
// load, so the loads below thr are a prefix. The closed-form guess, checked
// with linkTimeUS, spares the binary search its ~63 steps on nearly every
// call; a guess out of range or off by more than one falls back to it.
func linkCap(t *topology.Tree, l int, thr float64) int64 {
	below := func(load int64) bool { return linkTimeUS(t, l, load) < thr }
	lo, hi := int64(1), int64(math.MaxInt64) // the cap is in [lo, hi]
	guess := (thr - t.LinkLatencyUS(l)) * (t.LinkBandwidthGBs(l) * 1e3)
	if c := int64(guess); guess >= 2 && guess < 1<<62 && below(c-1) && !below(c+1) {
		lo, hi = c, c+1
	}
	for lo < hi {
		if mid := lo + (hi-lo)/2; below(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// under reports whether every link's load is below its cap.
func under(loads, caps []int64) bool {
	for l, x := range loads {
		if x >= caps[l] {
			return false
		}
	}
	return true
}

// localSearchCtx refines an assignment with single-partition moves and
// pairwise swaps (descendDelta) from several deterministic seeds, on
// min(workers, seeds) goroutines (at least one) that claim seeds by index,
// and returns the best. Each descent is deterministic and lands in its
// seed's slot, and the winner is selected in fixed seed order, so the result
// is the same at any worker count. Cancelling the context cuts the descents
// short (SolveCtx then reports the cancellation). greedy is the first seed.
// The second result names the seed whose descent won.
func localSearchCtx(ctx context.Context, p *Problem, workers int, greedy *Assignment) (*Assignment, string) {
	seeds := coldSeeds(p, greedy.GPUOf)

	var results [len(seedNames)]*Assignment
	var next atomic.Int32
	var wg sync.WaitGroup
	for range max(1, min(workers, len(seeds))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(seeds); i = int(next.Add(1)) - 1 {
				results[i] = descent(ctx, p, seedNames[i], seeds[i])
			}
		}()
	}
	wg.Wait()

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
	residues     int  // rejected swaps whose undo changed gpuT
	budgetCut    bool // stopped by deltaDescendEvalBudget, not by convergence
}

// descent runs descendDelta from one seed, recorded as a map.descent span
// under ctx's current span.
func descent(ctx context.Context, p *Problem, seed string, gpuOf []int) *Assignment {
	_, span := obs.StartSpan(ctx, "map.descent")
	a, st := descendDelta(ctx, p, gpuOf)
	span.Notef("seed=%s candidates=%d time_rejected=%d accepts=%d residues=%d budget_cut=%t",
		seed, st.candidates, st.timeRejected, st.accepts, st.residues, st.budgetCut)
	span.End()
	return a
}

// descendDelta is the mapper's one descent, at every instance size: rounds of
// single-partition moves, then pairwise swaps, each candidate accepted when it
// lowers the objective by more than 1e-9, under the deltaDescendEvalBudget
// allowance. A candidate's O(1) per-GPU time updates come first — the largest
// GPU time bounds the objective from below — and only survivors have their
// load change, summed from the maintained move rows, held to the link caps. A
// rejected candidate's time updates are undone in the order a whole-move undo
// would apply them: the rounding residue they leave in gpuT is what later
// candidates are scored against. Swaps are scanned from event to event
// (scanSwaps). So the descent visits exactly the assignments an unfiltered
// one would; DESIGN.md S5 has the argument, the test-only
// descendDeltaUnfiltered and descendRescan are the referees.
func descendDelta(ctx context.Context, p *Problem, gpuOf []int) (*Assignment, descentStats) {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	var st descentStats
	ev := newEvaluator(p)
	L := len(ev.loads)
	cur := ev.reset(gpuOf, math.Inf(1)) // the exact objective: see evaluator
	ev.setCaps(cur - 1e-9)
	// A move between GPUs a and b changes loads only on chain[a] and
	// chain[b], the links above the two (their routes to and from the host).
	// Row x = i*g+k is the change when partition i moves to GPU k: on
	// chain[gpuOf[i]] in its first C values, then on chain[k] — a link on
	// both is counted in the first half. The table grows with the tree's
	// depth, not its size (DESIGN.md S5).
	chain, C := make([][]int, g), 0
	slot := make([]int32, g*L) // [k*L+l]: l's index in chain[k], or -1
	for k := range chain {
		chain[k] = slices.Concat(p.Topo.Route(k, topology.Host), p.Topo.Route(topology.Host, k))
		C = max(C, len(chain[k]))
		for l := range L {
			slot[k*L+l] = int32(slices.Index(chain[k], l))
		}
	}
	rows := make([]int64, n*g*2*C)
	delta := make([]int64, L) // the load change of the candidate being tried
	addRow := func(x, a, b int) {
		r := rows[2*C*x:][:2*C]
		for s, l := range chain[a] {
			delta[l] += r[s]
		}
		for s, l := range chain[b] {
			delta[l] += r[C+s]
		}
	}
	refresh := func(i int) {
		a := ev.gpuOf[i]
		for k := 0; k < g; k++ {
			r := rows[2*C*(i*g+k):][:2*C]
			clear(r)
			ev.reroute(delta, i, a, k)
			for s, l := range chain[a] {
				r[s], delta[l] = delta[l], 0
			}
			for s, l := range chain[k] {
				r[C+s], delta[l] = delta[l], 0
			}
		}
	}
	members := make([][]int, g) // GPU -> its partitions, ascending
	for i := 0; i < n; i++ {
		refresh(i)
		members[ev.gpuOf[i]] = append(members[ev.gpuOf[i]], i)
	}
	// fits reports whether every link stays below its cap with delta added.
	// A rejected delta is cleared, and hot becomes the link it failed on.
	hot := 0
	fits := func() bool {
		for l, d := range delta {
			if ev.loads[l]+d >= ev.caps[l] {
				hot = l
				clear(delta)
				return false
			}
		}
		return true
	}
	folds := slices.Clone(ev.gpuT) // GPU -> its members' T_i folded in index order
	// accept adopts the candidate ev.gpuOf and delta now hold, a move between
	// GPUs ga and gb: the rows of the moved partitions and their PDG
	// neighbours are re-routed and ga and gb refolded, so the state is reset's.
	accept := func(ga, gb int, moved ...int) {
		st.accepts++
		for l, d := range delta {
			ev.loads[l] += d
		}
		clear(delta)
		for _, i := range moved {
			from, to := ga+gb-ev.gpuOf[i], ev.gpuOf[i]
			x, _ := slices.BinarySearch(members[from], i)
			members[from] = slices.Delete(members[from], x, x+1)
			x, _ = slices.BinarySearch(members[to], i)
			members[to] = slices.Insert(members[to], x, i)
			refresh(i)
			for _, ei := range ev.incident[i] {
				e := &p.PDG.Edges[ei]
				refresh(e.From + e.To - i)
			}
		}
		for _, k := range [...]int{ga, gb} {
			f := 0.0
			for _, m := range members[k] {
				f += ev.times[m]
			}
			folds[k] = f
		}
		copy(ev.gpuT, folds)
		cur = linkMax(p.Topo, ev.loads, gpuMax(ev.gpuT))
		ev.setCaps(cur - 1e-9)
	}
	finish := func(cut bool) (*Assignment, descentStats) {
		st.budgetCut = cut
		return ev.assignment(ev.gpuOf, "local"), st
	}
	// next aims tg at i's swaps from the state as it is and scans from j on.
	tg := make([]swapTarget, g)
	next := func(i, j int) int {
		gi, ti, thr := ev.gpuOf[i], ev.times[i], cur-1e-9
		above := 0 // GPUs other than gi at or above thr
		for k, t := range ev.gpuT {
			if k != gi && t >= thr {
				above++
			}
		}
		for k, t := range ev.gpuT {
			x := swapTarget{t: t, b: t + ti, reached: above > 1 || above == 1 && t < thr || 0 >= thr, hot: ev.loads[hot]}
			r := rows[2*C*(i*g+k):] // row(i, k): chain[gi] first
			if s := slot[gi*L+hot]; s >= 0 {
				x.hot += r[s]
			} else if s := slot[k*L+hot]; s >= 0 {
				x.hot += r[C+int(s)]
			}
			if s := slot[k*L+hot]; s >= 0 {
				x.off, x.mask = int(s), -1
			} else if s := slot[gi*L+hot]; s >= 0 {
				x.off, x.mask = C+int(s), -1
			}
			tg[k] = x
		}
		j, st.candidates, st.timeRejected = scanSwaps(ev.gpuOf, ev.times, rows[2*C*gi:], 2*C*g, tg, j, gi,
			ev.gpuT[gi], ev.gpuT[gi]-ti, ti, thr, ev.caps[hot], st.candidates, st.timeRejected)
		return j
	}
	pair := make([]int64, n)  // bytes the outer partition exchanges with each neighbour
	stamp := make([]int32, n) // pair[o] is current when stamp[o] == mark
	mark := int32(0)
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
				// i's time leaves old for k; undone, it comes back.
				ti := ev.times[i]
				a, b := ev.gpuT[old]-ti, ev.gpuT[k]+ti
				if reaches(ev.gpuT, old, a, k, b, thr) {
					st.timeRejected++
				} else if addRow(i*g+k, old, k); fits() {
					ev.gpuOf[i] = k
					accept(old, k, i)
					improved = true
					continue
				}
				ev.gpuT[old], ev.gpuT[k] = a+ti, b-ti
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
			mark++
			for _, ei := range ev.incident[i] {
				e := &p.PDG.Edges[ei]
				o := e.From + e.To - i
				if stamp[o] != mark {
					stamp[o], pair[o] = mark, 0
				}
				pair[o] += e.Bytes * int64(p.FragmentIters)
			}
			for j := next(i, i+1); j < n; j = next(i, j+1) {
				gi, gj := ev.gpuOf[i], ev.gpuOf[j]
				st.candidates++
				thr := cur - 1e-9
				// i's time leaves gi for gj, then j's gj for gi (undone: j's
				// first). Most survivors fail on the link the last one failed
				// on (DESIGN.md S5 has the rates), so that link is tried first,
				// without the neighbour correction: it only adds load.
				ti, tj := ev.times[i], ev.times[j]
				a, b := ev.gpuT[gi]-ti+tj, ev.gpuT[gj]+ti-tj
				if reaches(ev.gpuT, gi, a, gj, b, thr) {
					st.timeRejected++
				} else if x := &tg[gj]; x.hot+rows[2*C*(j*g+gi)+x.off]&x.mask < ev.caps[hot] {
					addRow(i*g+gj, gi, gj)
					addRow(j*g+gi, gj, gi)
					if stamp[j] == mark {
						// Both rows took i↔j transfers off their route and
						// routed them nowhere: put them back, and reversed.
						addLoad(delta, ev.routes[gi*g+gj], pair[j])
						addLoad(delta, ev.routes[gj*g+gi], pair[j])
					}
					if fits() {
						ev.gpuOf[i], ev.gpuOf[j] = gj, gi
						accept(gi, gj, i, j)
						improved = true
						continue
					}
				}
				ua, ub := a-tj+ti, b+tj-ti
				if math.Float64bits(ua) != math.Float64bits(ev.gpuT[gi]) || math.Float64bits(ub) != math.Float64bits(ev.gpuT[gj]) {
					st.residues++
				}
				ev.gpuT[gi], ev.gpuT[gj] = ua, ub
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

// swapTarget is what a swap of the outer partition i, on GPU gi, with a
// partner on GPU k reads of the state, fixed between two events.
type swapTarget struct {
	t, b    float64 // gpuT[k], and fl(gpuT[k] + T_i)
	reached bool    // a GPU other than gi and k, or 0, reaches the threshold
	hot     int64   // loads[hot] + row(i, k)[hot]
	off     int     // the hot link's offset in row(j, gi) for j on k,
	mask    int64   // and -1, or 0 if that row does not hold it
}

// scanSwaps walks i's swap partners from j on (i on GPU gi, gpuT[gi] = gT,
// T_i = ti, a0 = fl(gT − ti), rows from gi's on) to the first event — its
// undo changes gpuT, or it passes the time bound and the hot-link test — and
// returns it, or len(gpuOf), with cands and rejected counting the rest.
func scanSwaps(gpuOf []int, times []float64, rows []int64, stride int, tg []swapTarget,
	j, gi int, gT, a0, ti, thr float64, capHot int64, cands, rejected int) (int, int, int) {
	for ; j < len(gpuOf); j++ {
		gj := gpuOf[j]
		if gj == gi {
			continue
		}
		x, tj := &tg[gj], times[j]
		a, b := a0+tj, x.b-tj
		if math.Float64bits(a-tj+ti) != math.Float64bits(gT) || math.Float64bits(b+tj-ti) != math.Float64bits(x.t) {
			break
		}
		if x.reached || a >= thr || b >= thr {
			rejected++
		} else if x.hot+rows[j*stride+x.off]&x.mask < capHot {
			break
		}
		cands++
	}
	return j, cands, rejected
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
func (o Options) Normalized() Options {
	if o.ILPMaxParts == 0 {
		o.ILPMaxParts = 24
	}
	if o.TimeBudget == 0 {
		o.TimeBudget = 10 * time.Second
	}
	return o
}
