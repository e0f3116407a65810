// Package pee implements the paper's GPU Performance Estimation Engine
// (§3.3): given any subgraph of a stream graph, it selects the kernel
// parameters — S compute threads per execution, W concurrent executions per
// SM, F data-transfer threads — and statically predicts the kernel's
// execution time with the model
//
//	Texec = max(Tcomp, Tdt) + Tdb            (III.8)
//	Tcomp = Σ_i t_i / min(f_i, S)            (III.9)
//	Tdt   = C1 · D / F                       (III.10)
//	Tdb   = C2 · D / (F + W·S)               (III.11)
//	T     = Texec / W                        (III.12)
//
// where t_i is the profiled single-thread time of one steady-state iteration
// of filter i, f_i its firing rate within the subgraph, and D the kernel's
// I/O traffic (all W executions).
//
// The same parameter selection is reused verbatim by the code generator, so
// there is no "static discrepancy" between what the estimator scores and
// what is generated — a point the paper calls essential for accuracy.
package pee

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"streammap/internal/gpu"
	"streammap/internal/sdf"
	"streammap/internal/smreq"
)

// Paper regression constants (§4.0.1). The device model constants in
// package gpu are chosen so that these are also the exact values of our
// simulated hardware; Calibrate recovers them from profiled samples.
const (
	DefaultC1 = 38.4 // cycles per byte per DT thread
	DefaultC2 = 11.2 // cycles per byte per swapping thread
)

// ErrInfeasible is returned when a subgraph cannot fit one execution in
// shared memory even with the minimal parameters.
var ErrInfeasible = errors.New("pee: subgraph exceeds shared memory for any parameter choice")

// Profile carries the per-filter profiling annotation of §3.3.1: the number
// of GPU cycles one firing of each node costs when run by a single thread
// (prefetching suppressed). t_i of the model is PerFiringCycles[i] times the
// node's firing rate in the subgraph under estimation.
type Profile struct {
	Device          gpu.Device
	C1, C2          float64
	PerFiringCycles []float64 // indexed by parent-graph node id
}

// ProfileGraph profiles every filter of g for the device: the annotation
// step that runs each filter as a single-thread kernel. The cost law is the
// same one the simulator charges, which is exactly the paper's situation —
// profiling measures the target hardware.
func ProfileGraph(g *sdf.Graph, d gpu.Device) *Profile {
	// The regression constants are device facts: cycles per byte per DT
	// thread (C1) and per swapping thread (C2). On M2090 they are exactly
	// the paper's 38.4 and 11.2.
	p := &Profile{Device: d,
		C1:              d.GMCyclesPerTokenPerF / sdf.TokenBytes,
		C2:              d.SwapCyclesPerToken / sdf.TokenBytes,
		PerFiringCycles: make([]float64, g.NumNodes())}
	for _, n := range g.Nodes {
		p.PerFiringCycles[n.ID] = FiringCycles(d, n.Filter)
	}
	return p
}

// FiringCycles is the shared compute-cost law: cycles for one firing of a
// filter by one thread (fixed overhead + arithmetic + shared-memory moves).
// Zero-copy filters (splitter/joiner elimination, Chapter V) degenerate to
// the index-adjustment overhead alone.
func FiringCycles(d gpu.Device, f *sdf.Filter) float64 {
	if f.ZeroCopy {
		return d.FiringOverhead
	}
	tokens := 0
	for _, in := range f.Inputs {
		tokens += in.Peek
	}
	for _, push := range f.Outputs {
		tokens += push
	}
	return d.FiringOverhead + float64(f.Ops)*d.CyclesPerOp + float64(tokens)*d.SMCyclesPerToken
}

// Params are the kernel parameters the estimator selects (§3.3.1).
type Params struct {
	S int // compute threads per execution
	W int // executions per SM
	F int // data transfer threads
}

// Estimate is the engine's verdict for one subgraph.
type Estimate struct {
	Params  Params
	SMBytes int64 // shared-memory bytes per execution (allocator peak)
	DBytes  int64 // I/O bytes per execution

	TcompUS float64 // per-kernel compute time (independent of W, see III.9)
	TdtUS   float64 // per-kernel data-transfer time (all W executions)
	TdbUS   float64 // buffer-swap time
	TexecUS float64 // max(Tcomp,Tdt)+Tdb
	TUS     float64 // normalized per-execution time Texec/W

	LaunchUS float64 // fixed per-kernel-invocation cost (not in TUS)
}

// ComputeBound reports whether the partition's compute time dominates its
// data-transfer time (the classification driving partitioning phase 3).
func (e *Estimate) ComputeBound() bool { return e.TcompUS >= e.TdtUS }

// Engine estimates subgraphs against one profile, memoizing by member list.
// Only Peek is safe for concurrent use, and only while nothing calls
// Estimate or Settle. An engine lives for one partitioning run, and no
// long-lived struct holds one, so the memo dies with the run that filled it.
//
// The hot path is allocation-lean: queries key on sdf.HashMembers (no string
// key is built), hits return after comparing the stored list, and misses
// score the candidate through a reused sdf.SubView instead of materializing
// the subgraph with Extract.
type Engine struct {
	Graph *sdf.Graph
	Prof  *Profile

	// Tables derived once in NewEngine so the per-candidate sweep indexes
	// plain slices instead of calling into the graph.
	rep []int64 // parent repetition vector, indexed by node id

	// memo buckets entries by list hash; a bucket with more than one entry
	// is a hash collision, told apart by comparing the lists.
	memo            map[uint64][]memoEntry
	queries, misses int64

	scorer Scorer
}

// memoEntry is one scored member list: an owned clone, the collision-safe
// identity, beside its verdict.
type memoEntry struct {
	members []sdf.NodeID
	est     *Estimate
	err     error
}

// Scorer is one goroutine's scoring workspace: the subgraph view plus the
// sweep's candidate buffers.
type Scorer struct {
	view  sdf.SubView
	costs []nodeCost
	sBits []uint64 // candidate S values being marked, a bitset over [0, MaxThreadsPerBlock)
	sVals []int
	tcomp []float64 // Tcomp per candidate S, parallel to sVals
}

// listHash is the memo hash function, a var so the collision test can force
// every list into one bucket.
var listHash = sdf.HashMembers

// NewEngine returns an estimation engine for the profiled graph. The engine
// snapshots the repetition vector for the scoring hot path.
func NewEngine(g *sdf.Graph, prof *Profile) *Engine {
	e := &Engine{Graph: g, Prof: prof, memo: map[uint64][]memoEntry{}}
	e.rep = make([]int64, g.NumNodes())
	for _, n := range g.Nodes {
		e.rep[n.ID] = g.Rep(n.ID)
	}
	return e
}

// Stats is the engine's instrumentation snapshot.
type Stats struct {
	Queries int64 // Estimate calls
	Misses  int64 // queries that computed a fresh estimate
	// Uncached is always zero: every estimate goes through the memo. The
	// field survives only because the frozen bench/compile.go reads it, and
	// the next change to the benchmark drops it.
	Uncached int64
}

// Hits returns the memoized-query count.
func (s Stats) Hits() int64 { return s.Queries - s.Misses }

// HitRate returns hits/queries in [0,1] (0 when no queries ran).
func (s Stats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(s.Queries)
}

// String renders the snapshot for reports and stage provenance.
func (s Stats) String() string {
	return fmt.Sprintf("queries=%d hits=%d misses=%d hitRate=%.3f", s.Queries, s.Hits(), s.Misses, s.HitRate())
}

// Stats returns the engine's instrumentation counters.
func (e *Engine) Stats() Stats { return Stats{Queries: e.queries, Misses: e.misses} }

// ScaleOf returns the granularity scale Extract would record for an
// ascending member list: the gcd of the members' parent repetition counts
// (parent reps = Scale * sub reps). It reads the engine's precomputed
// repetition table and allocates nothing, letting the partitioner compare
// workloads without extracting.
func (e *Engine) ScaleOf(members []sdf.NodeID) int64 {
	var g int64
	for _, id := range members {
		a, b := g, e.rep[id]
		for b != 0 {
			a, b = b, a%b
		}
		g = a
	}
	if g == 0 {
		return 1
	}
	return g
}

// Estimate estimates the partition given as an ascending member list of the
// parent graph, once per distinct list: the memo stores an owned clone, so
// the caller may reuse its slice. A miss scores the members through the view
// path, which reproduces scoring the extracted subgraph bit for bit: the
// same member order drives the same cost summation, the same SM and I/O byte
// totals feed the same parameter sweep, and the same infeasibility
// conditions yield the same errors.
func (e *Engine) Estimate(members []sdf.NodeID) (*Estimate, error) {
	est, err := e.Peek(&e.scorer, members)
	return e.Settle(members, est, err)
}

// Peek answers a query as Estimate would, from the memo or by scoring the
// members in s, but counts and stores nothing, so goroutines with their own
// Scorers may Peek at once while nothing calls Estimate or Settle.
func (e *Engine) Peek(s *Scorer, members []sdf.NodeID) (*Estimate, error) {
	if m := e.find(listHash(members), members); m != nil {
		return m.est, m.err
	}
	return e.score(s, members)
}

// Settle counts one query Peek answered with (est, err), as Estimate counts
// it: a hit returns the memo's verdict, a miss stores this one. Settling the
// queries of a serial scan in its order leaves Stats and the memo as that
// scan's Estimate calls would.
func (e *Engine) Settle(members []sdf.NodeID, est *Estimate, err error) (*Estimate, error) {
	e.queries++
	h := listHash(members)
	if m := e.find(h, members); m != nil {
		return m.est, m.err
	}
	e.misses++
	e.memo[h] = append(e.memo[h], memoEntry{members: slices.Clone(members), est: est, err: err})
	return est, err
}

// find returns the memo entry for members, or nil.
func (e *Engine) find(h uint64, members []sdf.NodeID) *memoEntry {
	for i, m := range e.memo[h] {
		if slices.Equal(m.members, members) {
			return &e.memo[h][i]
		}
	}
	return nil
}

// nodeCost is one member's contribution to Tcomp: t_i in cycles and the
// firing rate that bounds its intra-execution parallelism.
type nodeCost struct {
	cycles float64 // t_i = f_i * perFiring
	f      int64
}

// markCandidate marks one member's candidate S value: its firing rate when
// it fits in a block, else the largest warp-aligned S.
func (sc *Scorer) markCandidate(f int64, d *gpu.Device) {
	s := d.MaxThreadsPerBlock - d.WarpSize
	if f < int64(d.MaxThreadsPerBlock) {
		s = int(f)
	}
	if n := (d.MaxThreadsPerBlock + 63) / 64; len(sc.sBits) < n {
		sc.sBits = make([]uint64, n)
	}
	if s >= 1 {
		sc.sBits[s/64] |= 1 << (s % 64)
	}
}

// finishCandidates marks the warp-multiple candidates, then lists every
// marked S ascending into sVals and clears the marks: the sorted, distinct
// set in [1, MaxThreadsPerBlock), in time linear in the members.
func (sc *Scorer) finishCandidates(d *gpu.Device) {
	sc.markCandidate(1, d)
	for s := d.WarpSize; s <= d.MaxThreadsPerBlock/2; s *= 2 {
		sc.markCandidate(int64(s), d)
	}
	out := sc.sVals[:0]
	for i, w := range sc.sBits {
		for ; w != 0; w &= w - 1 {
			out = append(out, i*64+bits.TrailingZeros64(w))
		}
		sc.sBits[i] = 0
	}
	sc.sVals = out
}

// modelCycles evaluates III.8–III.12 in cycles for one (S, W, F): c1D and
// c2D are C1·D and C2·D with D the kernel's I/O bytes over all W executions,
// ws is W·S. Every candidate of the sweep and the winner's reported terms go
// through this one expression, so they round identically.
func modelCycles(tc, c1D, c2D float64, F, ws, W int) (tdt, tdb, texec, t float64) {
	tdt = c1D / float64(F)
	tdb = c2D / float64(F+ws)
	texec = tc
	if tdt > texec {
		texec = tdt
	}
	texec += tdb
	return tdt, tdb, texec, texec / float64(W)
}

// floorMargin keeps the computed transfer floor C1·dB/F(W) below every T
// the model computes for this or a later W of the same S: each side is at
// most five correctly rounded operations off the exact quotient, and 2⁻⁴⁸
// is wider than their combined error. The plateau skip uses it for the same
// reason: two computed T of one F-plateau are each five roundings off the
// exact ones. DESIGN.md S3 has both arguments.
const floorMargin = 1 - 0x1p-48

// floorStart returns the first W in 1..wEnd whose compute floor fl(tc/W) is
// at most lim, or wEnd+1 when there is none. The floor does not grow with
// W, so the W it skips are a prefix of the range.
func floorStart(tc, lim float64, wEnd int) int {
	if tc <= lim {
		return 1
	}
	if tc/float64(wEnd) > lim {
		return wEnd + 1
	}
	// tc/lim is +Inf when lim is 0 and may exceed wEnd: clamp it before
	// converting, then settle on the exact first W.
	W := wEnd
	if x := tc / lim; x < float64(wEnd) {
		W = max(int(x), 1)
	}
	for W > 1 && tc/float64(W-1) <= lim {
		W--
	}
	for tc/float64(W) > lim {
		W++
	}
	return W
}

// sweep runs the parameter selection (S, W, F) and performance model over
// the prepared cost table and candidate S values: the engine's scoring core,
// which the tests' extracted-subgraph reference shares.
//
// The selection is the minimum of T (III.12) over every (S, W, F), ties
// going to the first candidate in S-then-W-then-F order. F is not scanned:
// for fixed (S, W) every floating-point operation of
//
//	t(F) = (max(Tcomp, C1·D/F) + C2·D/(F+W·S)) / W
//
// is monotone non-increasing in F, so the minimum over F is at the largest
// warp multiple, and the first F attaining it is found by binary search once,
// for the winning (S, W) only. Nor is every W scanned. A first pass bounds
// the optimum from above by U, the best T at the W where each S's compute
// floor Tcomp/W meets its transfer floor C1·dB/F(W); each S's scan then
// starts at the first W whose compute floor is at most min(U, incumbent),
// as t ≥ fl(Tcomp/W) for every F. It stops once the transfer floor reaches
// the incumbent: for fixed S the largest F shrinks as W grows, so no later W
// can beat it. And on a run of W sharing one largest F, where T does not
// increase, it scores the run's last two W and skips the rest when the last
// is clearly the least. This needs C1, C2 and dBytes non-negative, which
// every profile of a device model satisfies. DESIGN.md S3 has the arguments.
func (sc *Scorer) sweep(prof *Profile, smBytes, dBytes int64) (*Estimate, error) {
	d := &prof.Device
	// A partition with no shared-memory demand (zero-copy filters only) is
	// bounded by the thread cap alone.
	maxW := d.MaxThreadsPerBlock
	if smBytes > 0 {
		if maxW = int(d.SharedMemPerSM / smBytes); maxW < 1 {
			return nil, fmt.Errorf("%w: need %d bytes, have %d", ErrInfeasible, smBytes, d.SharedMemPerSM)
		}
	}

	maxThreads, warp := d.MaxThreadsPerBlock, d.WarpSize
	// wEnd is the last feasible W of an S: W·S leaves F at least one warp.
	wEnd := func(S int) int { return min(maxW, (maxThreads-warp)/S) }
	// tAt is T at the largest F, the W's best over F.
	tAt := func(tc float64, S, W int) float64 {
		D := float64(dBytes) * float64(W)
		_, _, _, t := modelCycles(tc, prof.C1*D, prof.C2*D, (maxThreads-W*S)/warp*warp, W*S, W)
		return t
	}
	c1dB := prof.C1 * float64(dBytes) // the transfer floor's numerator

	// Pass 1: Tcomp(S) (III.9), summed once per S, and U. The floors meet
	// where tc·(MaxThreadsPerBlock − W·S) = C1·dB·W with F unrounded, and
	// U is the least T at that W. Any feasible W would do: U only has to
	// be the T of a real candidate.
	tcomp := sc.tcomp[:0]
	U := -1.0
	for _, S := range sc.sVals {
		var tc float64
		for _, nc := range sc.costs {
			par := nc.f
			if int64(S) < par {
				par = int64(S)
			}
			tc += nc.cycles / float64(par)
		}
		tcomp = append(tcomp, tc)
		end := wEnd(S)
		if end < 1 {
			continue
		}
		// The quotient may pass end, or be NaN when tc and dBytes are both
		// 0: clamp it before converting.
		W := end
		if x := tc * float64(maxThreads) / (c1dB + tc*float64(S)); x < float64(end) {
			W = max(int(x), 1)
		}
		if t := tAt(tc, S, W); U < 0 || t < U {
			U = t
		}
	}
	sc.tcomp = tcomp
	if U < 0 {
		return nil, fmt.Errorf("%w: no feasible thread configuration", ErrInfeasible)
	}

	// Pass 2: the ordered scan. It keeps the first candidate attaining
	// the minimum, and U guarantees it reaches one.
	var best Params // F is set after the loop, for the winner
	var bestTc float64
	bestT := -1.0 // cycles; < 0 until a candidate exists
	for i, S := range sc.sVals {
		tc, end, lim := tcomp[i], wEnd(S), U
		if bestT >= 0 {
			lim = min(lim, bestT)
		}
		plateauEnd := 0 // the last W of the F-plateau the scan is in
		for W := floorStart(tc, lim, end); W <= end; W++ {
			F := (maxThreads - W*S) / warp * warp
			if bestT >= 0 && c1dB/float64(F)*floorMargin >= bestT {
				break
			}
			tmin := -1.0 // T is never negative
			if W > plateauEnd {
				// W opens a run of W sharing F, along which T does not
				// increase: when the run's last T is clearly below the one
				// before it, it is below every earlier one too.
				plateauEnd = min(end, (maxThreads-F)/S)
				if plateauEnd-W >= 2 {
					if last := tAt(tc, S, plateauEnd); tAt(tc, S, plateauEnd-1)*floorMargin > last {
						W, tmin = plateauEnd, last
					}
				}
			}
			if tmin < 0 {
				tmin = tAt(tc, S, W)
			}
			if bestT < 0 || tmin < bestT {
				best, bestTc, bestT = Params{S: S, W: W}, tc, tmin
			}
		}
	}
	D := float64(dBytes) * float64(best.W)
	c1D, c2D, ws := prof.C1*D, prof.C2*D, best.W*best.S
	// Smallest k with t(k) == t(Fmax): t is non-increasing in k, so
	// t(k) <= t(Fmax) is false below the plateau and true on it.
	lo, hi := 1, (maxThreads-ws)/warp
	for lo < hi {
		mid := (lo + hi) / 2
		if _, _, _, t := modelCycles(bestTc, c1D, c2D, mid*warp, ws, best.W); t <= bestT {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	best.F = lo * warp
	tdt, tdb, texec, t := modelCycles(bestTc, c1D, c2D, best.F, ws, best.W)
	return &Estimate{
		Params:   best,
		SMBytes:  smBytes,
		DBytes:   dBytes,
		TcompUS:  d.CyclesToUS(bestTc),
		TdtUS:    d.CyclesToUS(tdt),
		TdbUS:    d.CyclesToUS(tdb),
		TexecUS:  d.CyclesToUS(texec),
		TUS:      d.CyclesToUS(t),
		LaunchUS: d.KernelLaunchUS,
	}, nil
}

// score scores the induced subgraph over an ascending member list through
// sc's view and buffers; it only reads the engine. Member order equals the
// extracted subgraph's node order (both ascend by parent id), so the cost
// summation — and with it every float of the model — matches scoring the
// extracted form.
func (e *Engine) score(sc *Scorer, members []sdf.NodeID) (*Estimate, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sdf: Extract: empty set")
	}
	v, prof := &sc.view, e.Prof
	d := &prof.Device
	v.Fill(e.Graph, members)
	smBytes, err := smreq.PeakBytesView(v)
	if err != nil {
		return nil, err
	}
	dBytes := v.IOBytesPerIteration()

	costs := sc.costs[:0]
	for i, pid := range v.Members() {
		f := v.RepAt(i)
		costs = append(costs, nodeCost{cycles: float64(f) * prof.PerFiringCycles[pid], f: f})
		sc.markCandidate(f, d)
	}
	sc.costs = costs
	sc.finishCandidates(d)
	return sc.sweep(prof, smBytes, dBytes)
}

// Sample is one calibration observation: a kernel run with known parameters
// and measured transfer/swap times (µs).
type Sample struct {
	DBytes    int64 // total kernel I/O bytes (all W executions)
	Params    Params
	MeasDtUS  float64
	MeasDbUS  float64
	DeviceMHz float64
}

// Calibrate fits C1 and C2 by least squares through the origin, exactly the
// paper's linear-regression procedure over profiled data (§4.0.1):
// Tdt ≈ C1·D/F and Tdb ≈ C2·D/(F+W·S), with times converted to cycles.
func Calibrate(samples []Sample) (c1, c2 float64, err error) {
	if len(samples) == 0 {
		return 0, 0, errors.New("pee: Calibrate: no samples")
	}
	var sxx1, sxy1, sxx2, sxy2 float64
	for _, s := range samples {
		if s.Params.F <= 0 || s.DeviceMHz <= 0 {
			return 0, 0, fmt.Errorf("pee: Calibrate: bad sample %+v", s)
		}
		x1 := float64(s.DBytes) / float64(s.Params.F)
		y1 := s.MeasDtUS * s.DeviceMHz // cycles
		sxx1 += x1 * x1
		sxy1 += x1 * y1
		x2 := float64(s.DBytes) / float64(s.Params.F+s.Params.W*s.Params.S)
		y2 := s.MeasDbUS * s.DeviceMHz
		sxx2 += x2 * x2
		sxy2 += x2 * y2
	}
	if sxx1 == 0 || sxx2 == 0 {
		return 0, 0, errors.New("pee: Calibrate: degenerate samples")
	}
	return sxy1 / sxx1, sxy2 / sxx2, nil
}

// RSquared computes the coefficient of determination between predictions
// and measurements (used to report the Figure 4.1 fit quality).
func RSquared(pred, meas []float64) float64 {
	if len(pred) != len(meas) || len(pred) == 0 {
		return 0
	}
	var mean float64
	for _, m := range meas {
		mean += m
	}
	mean /= float64(len(meas))
	var ssRes, ssTot float64
	for i := range meas {
		d := meas[i] - pred[i]
		ssRes += d * d
		t := meas[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}
