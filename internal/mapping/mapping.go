// Package mapping assigns partitions to GPUs. It implements the paper's
// communication-aware ILP formulation (§3.2.2, Eq. III.1–III.7) over the
// PCIe tree topology, an exact objective evaluator shared by all mappers, a
// greedy/local-search heuristic used both as the ILP warm start and as the
// fallback for instances beyond the ILP size threshold, and the previous
// work's communication-unaware baseline.
//
// The objective is Tmax — the largest per-fragment busy time of any GPU or
// any directed PCIe link — which bounds the steady-state throughput of the
// pipelined multi-GPU execution (§3.2.3).
package mapping

import (
	"context"
	"fmt"
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
	n := p.PDG.NumParts()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.PartTimeUS(order[a]) > p.PartTimeUS(order[b])
	})
	gpuOf := make([]int, n)
	for i := range gpuOf {
		gpuOf[i] = -1
	}
	ev := newEvaluator(p)
	for _, pi := range order {
		best, bestObj := 0, math.Inf(1)
		for k := 0; k < p.Topo.NumGPUs(); k++ {
			gpuOf[pi] = k
			obj := ev.objective(gpuOf, bestObj)
			if obj < bestObj {
				best, bestObj = k, obj
			}
		}
		gpuOf[pi] = best
	}
	return Evaluate(p, gpuOf, "greedy")
}

// evaluator computes the exact objective of an assignment with zero
// allocation per call: per-GPU time and per-link load buffers are reused,
// partition times are read from a precomputed table, and routes come from
// the topology's route cache. It performs bit for bit the same float
// arithmetic, in the same order, as Evaluate — candidate scans score with
// objective and only the accepted assignment is re-scored by Evaluate for
// its fully populated form.
//
// Unassigned partitions (gpuOf[i] == -1) and the transfers touching them
// are skipped, which also subsumes the old evalPartial. Not safe for
// concurrent use; each local-search descent owns one.
type evaluator struct {
	p     *Problem
	times []float64 // PartTimeUS table
	gpuT  []float64
	loads []int64
	cuts  int // objective calls answered by the GPU-time bound alone
}

func newEvaluator(p *Problem) *evaluator {
	ev := &evaluator{
		p:     p,
		times: make([]float64, p.PDG.NumParts()),
		gpuT:  make([]float64, p.Topo.NumGPUs()),
		loads: make([]int64, p.Topo.NumLinks()),
	}
	for i := range ev.times {
		ev.times[i] = p.PartTimeUS(i)
	}
	return ev
}

// objective returns Evaluate(p, gpuOf, ...).Objective without building an
// Assignment, skipping partitions assigned -1 — unless the per-GPU times
// alone already reach cut, in which case it returns that lower bound (≥ cut)
// and never walks the edges. Every caller only asks whether the objective
// is below its cut, so the answer is the same either way; math.Inf(1)
// always yields the exact objective.
func (ev *evaluator) objective(gpuOf []int, cut float64) float64 {
	p, t := ev.p, ev.p.Topo
	for i := range ev.gpuT {
		ev.gpuT[i] = 0
	}
	B := int64(p.FragmentIters)
	for i, k := range gpuOf {
		if k >= 0 {
			ev.gpuT[k] += ev.times[i]
		}
	}
	obj := gpuMax(ev.gpuT)
	if obj >= cut {
		ev.cuts++
		return obj
	}
	for i := range ev.loads {
		ev.loads[i] = 0
	}
	for _, e := range p.PDG.Edges {
		gs, gd := gpuOf[e.From], gpuOf[e.To]
		if gs < 0 || gd < 0 || gs == gd {
			continue
		}
		bytes := e.Bytes * B
		var route []int
		if p.ViaHost {
			route = t.RouteViaHost(gs, gd)
		} else {
			route = t.Route(gs, gd)
		}
		for _, l := range route {
			ev.loads[l] += bytes
		}
	}
	for i, k := range gpuOf {
		if k < 0 {
			continue
		}
		if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
			for _, l := range t.Route(topology.Host, k) {
				ev.loads[l] += hb
			}
		}
		if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
			for _, l := range t.Route(k, topology.Host) {
				ev.loads[l] += hb
			}
		}
	}
	return linkMax(t, ev.loads, obj)
}

// deltaEvalMinParts is the partition count above which local-search descents
// score candidates with the incremental evaluator instead of full rescans.
// Every instance the exact flow produces (paper apps, differential corpus)
// stays below it and keeps the original arithmetic bit for bit; above it —
// the multilevel regime, thousands of partitions — the O(n²) swap sweep
// times an O(n+E) rescan per candidate was a minutes-long wall, and the
// incremental path turns each candidate into an O(deg) update.
const deltaEvalMinParts = 512

// deltaDescendEvalBudget caps candidate evaluations per delta-scored descent.
// Unlike the sub-threshold descent — which runs to a true local optimum —
// the large regime's swap neighborhood is millions of candidates per sweep
// and the sweep count until quiescence is unbounded, so each seed gets a
// fixed evaluation allowance (a count, not a clock: the result stays
// deterministic and machine-independent). At ~2k partitions this is a few
// full sweeps, which is where nearly all of the improvement lands.
const deltaDescendEvalBudget = 8_000_000

// deltaEvaluator scores single-partition moves incrementally. It holds the
// per-GPU times and per-link loads of one assignment (gpuOf) and splits a
// move into its two independent halves: moveTime, O(1), and reroute,
// O(deg(i)·route), which a descent applies to a scratch copy of the loads so
// a rejected candidate leaves nothing to undo there. Loads are exact
// (int64); gpuT is float and accumulates rounding residue across rejected
// candidates, so descents rebuild (reset) on every accepted improvement —
// drift never crosses an accept. Right after reset the state is Evaluate's
// own (same summation order, exact loads), so objective() then returns
// Evaluate's Objective bit for bit.
type deltaEvaluator struct {
	p        *Problem
	times    []float64
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

func newDeltaEvaluator(p *Problem) *deltaEvaluator {
	t, g := p.Topo, p.Topo.NumGPUs()
	de := &deltaEvaluator{
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
	for i := range de.times {
		de.times[i] = p.PartTimeUS(i)
	}
	for ei, e := range p.PDG.Edges {
		de.incident[e.From] = append(de.incident[e.From], int32(ei))
		de.incident[e.To] = append(de.incident[e.To], int32(ei))
	}
	for gs := 0; gs < g; gs++ {
		for gd := 0; gd < g; gd++ {
			switch {
			case gs == gd:
			case p.ViaHost:
				de.routes[gs*g+gd] = t.RouteViaHost(gs, gd)
			default:
				de.routes[gs*g+gd] = t.Route(gs, gd)
			}
		}
	}
	return de
}

// reset rebuilds the state for an assignment from scratch.
func (de *deltaEvaluator) reset(gpuOf []int) {
	copy(de.gpuOf, gpuOf)
	for i := range de.gpuT {
		de.gpuT[i] = 0
	}
	for i := range de.loads {
		de.loads[i] = 0
	}
	p, t := de.p, de.p.Topo
	B := int64(p.FragmentIters)
	for i, k := range de.gpuOf {
		de.gpuT[k] += de.times[i]
	}
	for _, e := range p.PDG.Edges {
		addLoad(de.loads, de.routes[de.gpuOf[e.From]*de.gpus+de.gpuOf[e.To]], e.Bytes*B)
	}
	for i, k := range de.gpuOf {
		if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
			addLoad(de.loads, t.Route(topology.Host, k), hb)
		}
		if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
			addLoad(de.loads, t.Route(k, topology.Host), hb)
		}
	}
}

// addLoad adds bytes (negative to subtract) to every link of a route.
func addLoad(loads []int64, route []int, bytes int64) {
	for _, l := range route {
		loads[l] += bytes
	}
}

// moveTime is the per-GPU half of a move: partition i's time leaves GPU
// from and lands on GPU to.
func (de *deltaEvaluator) moveTime(i, from, to int) {
	de.gpuT[from] -= de.times[i]
	de.gpuT[to] += de.times[i]
}

// reroute is the link half of a move: it adds to loads the change when
// partition i goes from GPU from to GPU to, its incident transfers and host
// I/O re-routed, every other partition placed as gpuOf says. gpuOf itself is
// the caller's to update.
func (de *deltaEvaluator) reroute(loads []int64, i, from, to int) {
	p, t, g := de.p, de.p.Topo, de.gpus
	B := int64(p.FragmentIters)
	for _, ei := range de.incident[i] {
		e := &p.PDG.Edges[ei]
		bytes := e.Bytes * B
		if e.From == i {
			o := de.gpuOf[e.To]
			addLoad(loads, de.routes[from*g+o], -bytes)
			addLoad(loads, de.routes[to*g+o], bytes)
		} else {
			o := de.gpuOf[e.From]
			addLoad(loads, de.routes[o*g+from], -bytes)
			addLoad(loads, de.routes[o*g+to], bytes)
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

// objective reads the current Tmax in O(gpus + links).
func (de *deltaEvaluator) objective() float64 {
	return linkMax(de.p.Topo, de.loads, gpuMax(de.gpuT))
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

// LocalSearch refines an assignment with single-partition moves and pairwise
// swaps until a local optimum of the exact objective, then returns the best
// of several deterministic seeds.
func LocalSearch(p *Problem) *Assignment {
	best, _ := localSearchCtx(context.Background(), p, 1, nil)
	return best
}

// localSearchCtx is LocalSearch with the seed descents run on up to workers
// goroutines. Each descent is deterministic and the winner is selected in
// fixed seed order, so the parallel result is identical to the serial one.
// Cancelling the context returns the best assignment found so far. A
// non-nil greedy supplies the precomputed first seed (SolveCtx reuses the
// portfolio's greedy leg instead of recomputing it). The second result
// names the seed whose descent won.
func localSearchCtx(ctx context.Context, p *Problem, workers int, greedy *Assignment) (*Assignment, string) {
	descend := descender(ctx, p, false)
	if greedy == nil {
		greedy = Greedy(p)
	}
	seeds := coldSeeds(p, greedy.GPUOf)

	var results [len(seedNames)]*Assignment
	if workers > 1 {
		var wg sync.WaitGroup
		for i := range seeds {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = descend(seedNames[i], seeds[i])
			}(i)
		}
		wg.Wait()
	} else {
		for i := range seeds {
			results[i] = descend(seedNames[i], seeds[i])
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

// Refine descends from a caller-supplied seed to a local optimum with
// LocalSearch's neighborhood, scan order and acceptance threshold — only
// the multi-seed fan-out is skipped, which is what makes a warm start
// cheap: from a near-optimal seed the descent converges in a round or two
// instead of re-exploring from three cold seeds. Candidates are always
// scored with the incremental (delta) evaluator regardless of instance
// size; accepted assignments are re-scored exactly, so the returned
// Objective is the exact evaluation either way. The driver's remap flow
// seeds this with the pre-failure assignment projected onto the surviving
// devices.
func Refine(ctx context.Context, p *Problem, seed []int) *Assignment {
	a := descender(ctx, p, true)("warm", seed)
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

// descender returns the descent routine for a problem: the exact-objective
// move/swap descent below deltaEvalMinParts, the delta-scored variant above
// it (or always, when forceDelta). Both share neighborhood, scan order and
// acceptance threshold and re-score accepted assignments exactly; which one
// filters candidates can differ only in float rounding of rejected scores.
// Each run is recorded as a map.descent span under ctx's current span.
func descender(ctx context.Context, p *Problem, forceDelta bool) func(seed string, gpuOf []int) *Assignment {
	run := descend
	if forceDelta || p.PDG.NumParts() > deltaEvalMinParts {
		run = descendDelta
	}
	return func(seed string, gpuOf []int) *Assignment {
		_, span := obs.StartSpan(ctx, "map.descent")
		a, st := run(ctx, p, gpuOf)
		span.Notef("seed=%s candidates=%d time_rejected=%d accepts=%d budget_cut=%t",
			seed, st.candidates, st.timeRejected, st.accepts, st.budgetCut)
		span.End()
		return a
	}
}

// descend is the sub-threshold descent: every candidate is scored from
// scratch with the reusable evaluator (identical floats to Evaluate, no
// allocation, cached routes, edges skipped when the GPU times alone reject
// it); only accepted improvements re-run the full Evaluate, so cur is always
// a completely populated assignment.
func descend(ctx context.Context, p *Problem, gpuOf []int) (*Assignment, descentStats) {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	var st descentStats
	ev := newEvaluator(p)
	cur := Evaluate(p, gpuOf, "local")
	cand := append([]int(nil), cur.GPUOf...)
	// improves scores cand against the acceptance threshold and adopts it
	// when it wins.
	improves := func() bool {
		st.candidates++
		thr := cur.Objective - 1e-9
		if !(ev.objective(cand, thr) < thr) {
			return false
		}
		st.accepts++
		cur = Evaluate(p, cand, "local")
		copy(cand, cur.GPUOf)
		return true
	}
	for ctx.Err() == nil {
		improved := false
		// Moves.
		for i := 0; i < n; i++ {
			for k := 0; k < g; k++ {
				if k == cur.GPUOf[i] {
					continue
				}
				cand[i] = k
				if improves() {
					improved = true
				} else {
					cand[i] = cur.GPUOf[i]
				}
			}
		}
		// Swaps.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if cur.GPUOf[i] == cur.GPUOf[j] {
					continue
				}
				cand[i], cand[j] = cand[j], cand[i]
				if improves() {
					improved = true
				} else {
					cand[i], cand[j] = cur.GPUOf[i], cur.GPUOf[j]
				}
			}
		}
		if !improved {
			break
		}
	}
	st.timeRejected = ev.cuts
	return cur, st
}

// descendDelta is the same neighborhood, scan order and acceptance threshold
// scored incrementally, under the deltaDescendEvalBudget allowance. A
// candidate is tried in two steps: its O(1) per-GPU time updates first —
// the largest GPU time is a lower bound of the objective, so one at or above
// the threshold rejects the candidate before any link load is computed — and
// only for survivors the O(deg·route) re-routing, on a scratch copy of the
// loads, and the link terms. A rejected candidate's time updates are undone
// in the order a whole-move undo would apply them, survivor or not: the
// rounding residue they leave in gpuT is what later candidates are scored
// against. Every candidate counts against the budget, filtered or not. The
// descent therefore visits exactly the assignments an unfiltered one would;
// DESIGN.md S5 has the argument, the test-only descendDeltaUnfiltered is
// the referee.
func descendDelta(ctx context.Context, p *Problem, gpuOf []int) (*Assignment, descentStats) {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	var st descentStats
	de := newDeltaEvaluator(p)
	de.reset(gpuOf)
	cur := de.objective() // the exact objective: see deltaEvaluator
	accept := func() {
		st.accepts++
		de.reset(de.gpuOf)
		cur = de.objective()
	}
	finish := func(cut bool) (*Assignment, descentStats) {
		st.budgetCut = cut
		return Evaluate(p, de.gpuOf, "local"), st
	}
	for ctx.Err() == nil {
		improved := false
		// Moves.
		for i := 0; i < n; i++ {
			for k := 0; k < g; k++ {
				old := de.gpuOf[i]
				if k == old {
					continue
				}
				st.candidates++
				thr := cur - 1e-9
				de.moveTime(i, old, k)
				if gpuMax(de.gpuT) >= thr {
					st.timeRejected++
					de.moveTime(i, k, old)
					continue
				}
				copy(de.trial, de.loads)
				de.reroute(de.trial, i, old, k)
				de.gpuOf[i] = k
				if linksBelow(p.Topo, de.trial, thr) {
					accept()
					improved = true
				} else {
					de.gpuOf[i] = old
					de.moveTime(i, k, old)
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
				gi, gj := de.gpuOf[i], de.gpuOf[j]
				if gi == gj {
					continue
				}
				st.candidates++
				thr := cur - 1e-9
				de.moveTime(i, gi, gj)
				de.moveTime(j, gj, gi)
				if gpuMax(de.gpuT) >= thr {
					st.timeRejected++
					de.moveTime(j, gi, gj)
					de.moveTime(i, gj, gi)
					continue
				}
				copy(de.trial, de.loads)
				de.reroute(de.trial, i, gi, gj)
				de.gpuOf[i] = gj // j's transfers with i route to i's new GPU
				de.reroute(de.trial, j, gj, gi)
				de.gpuOf[j] = gi
				if linksBelow(p.Topo, de.trial, thr) {
					accept()
					improved = true
				} else {
					de.gpuOf[i], de.gpuOf[j] = gi, gj
					de.moveTime(j, gi, gj)
					de.moveTime(i, gj, gi)
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
	n := q.PDG.NumParts()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return q.PartTimeUS(order[a]) > q.PartTimeUS(order[b])
	})
	gpuT := make([]float64, q.Topo.NumGPUs())
	gpuOf := make([]int, n)
	for _, pi := range order {
		best := 0
		for k := 1; k < len(gpuT); k++ {
			if gpuT[k] < gpuT[best] {
				best = k
			}
		}
		gpuOf[pi] = best
		gpuT[best] += q.PartTimeUS(pi)
	}
	a := Evaluate(&q, gpuOf, "prevwork")
	return a
}

// Options tunes Solve.
type Options struct {
	// ILPMaxParts caps the instance size handed to the exact solver; larger
	// instances use local search only (see DESIGN.md S5). Default 24.
	ILPMaxParts int
	// TimeBudget for the ILP solver. Default 10s (the paper reports <10s
	// with Gurobi).
	TimeBudget time.Duration
	// ForceILP runs the ILP regardless of size.
	ForceILP bool
	// Workers bounds the portfolio solver's concurrency (SolveCtx); 0 or 1
	// keeps the seed descents serial.
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

// Solve is the communication-aware mapper: the ILP formulation when the
// instance is within reach of the built-in solver, seeded and backed by
// local search.
func Solve(p *Problem, opts Options) (*Assignment, error) {
	opts = opts.withDefaults()
	if p.PDG.NumParts() == 0 {
		return nil, fmt.Errorf("mapping: empty PDG")
	}
	if p.Topo.NumGPUs() == 1 {
		gpuOf := make([]int, p.PDG.NumParts())
		return Evaluate(p, gpuOf, "single-gpu"), nil
	}
	heur := LocalSearch(p)
	if p.PDG.NumParts() > opts.ILPMaxParts && !opts.ForceILP {
		return heur, nil
	}
	a, err := solveILP(p, heur, opts)
	if err != nil {
		return heur, nil // solver trouble: fall back to the heuristic
	}
	if heur.Objective < a.Objective-1e-9 {
		return heur, nil
	}
	return a, nil
}
