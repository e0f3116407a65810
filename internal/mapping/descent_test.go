package mapping

import (
	"context"
	"math"
	"testing"

	"streammap/internal/pdg"
	"streammap/internal/topology"
)

// refDeltaEvaluator and descendDeltaUnfiltered are the delta descent as it
// was before candidates were filtered by the per-GPU time bound: every
// candidate applies its whole move (times and loads), reads the objective
// through math.Max, and is undone by the inverse move; every accept re-runs
// Evaluate. They exist only as the referee descendDelta is held to.
type refDeltaEvaluator struct {
	p        *Problem
	times    []float64
	gpuT     []float64
	loads    []int64
	incident [][]int32
	gpuOf    []int
}

func newRefDeltaEvaluator(p *Problem) *refDeltaEvaluator {
	de := &refDeltaEvaluator{
		p:        p,
		times:    make([]float64, p.PDG.NumParts()),
		gpuT:     make([]float64, p.Topo.NumGPUs()),
		loads:    make([]int64, p.Topo.NumLinks()),
		incident: make([][]int32, p.PDG.NumParts()),
		gpuOf:    make([]int, p.PDG.NumParts()),
	}
	for i := range de.times {
		de.times[i] = p.PartTimeUS(i)
	}
	for ei, e := range p.PDG.Edges {
		de.incident[e.From] = append(de.incident[e.From], int32(ei))
		de.incident[e.To] = append(de.incident[e.To], int32(ei))
	}
	return de
}

func (de *refDeltaEvaluator) reset(gpuOf []int) {
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
		de.addEdge(de.gpuOf[e.From], de.gpuOf[e.To], e.Bytes*B)
	}
	for i, k := range de.gpuOf {
		if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
			de.addLoad(t.Route(topology.Host, k), hb)
		}
		if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
			de.addLoad(t.Route(k, topology.Host), hb)
		}
	}
}

func (de *refDeltaEvaluator) addLoad(route []int, bytes int64) {
	for _, l := range route {
		de.loads[l] += bytes
	}
}

func (de *refDeltaEvaluator) addEdge(gs, gd int, bytes int64) {
	if gs == gd {
		return
	}
	if de.p.ViaHost {
		de.addLoad(de.p.Topo.RouteViaHost(gs, gd), bytes)
	} else {
		de.addLoad(de.p.Topo.Route(gs, gd), bytes)
	}
}

func (de *refDeltaEvaluator) move(i, k int) {
	old := de.gpuOf[i]
	if old == k {
		return
	}
	p, t := de.p, de.p.Topo
	B := int64(p.FragmentIters)
	de.gpuT[old] -= de.times[i]
	de.gpuT[k] += de.times[i]
	for _, ei := range de.incident[i] {
		e := &p.PDG.Edges[ei]
		bytes := e.Bytes * B
		if e.From == i {
			o := de.gpuOf[e.To]
			de.addEdge(old, o, -bytes)
			de.addEdge(k, o, bytes)
		} else {
			o := de.gpuOf[e.From]
			de.addEdge(o, old, -bytes)
			de.addEdge(o, k, bytes)
		}
	}
	if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
		de.addLoad(t.Route(topology.Host, old), -hb)
		de.addLoad(t.Route(topology.Host, k), hb)
	}
	if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
		de.addLoad(t.Route(old, topology.Host), -hb)
		de.addLoad(t.Route(k, topology.Host), hb)
	}
	de.gpuOf[i] = k
}

func (de *refDeltaEvaluator) objective() float64 {
	t := de.p.Topo
	obj := 0.0
	for _, gt := range de.gpuT {
		obj = math.Max(obj, gt)
	}
	for l, load := range de.loads {
		if load > 0 {
			obj = math.Max(obj, t.LinkLatencyUS(l)+float64(load)/(t.LinkBandwidthGBs(l)*1e3))
		}
	}
	return obj
}

// descendDeltaUnfiltered returns the descent's result and how many
// candidates it scored.
func descendDeltaUnfiltered(ctx context.Context, p *Problem, gpuOf []int) (*Assignment, int) {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	de := newRefDeltaEvaluator(p)
	cur := Evaluate(p, gpuOf, "local")
	de.reset(cur.GPUOf)
	accept := func() {
		cur = Evaluate(p, de.gpuOf, "local")
		de.reset(cur.GPUOf)
	}
	evals := 0
	for {
		if ctx.Err() != nil {
			return cur, evals
		}
		improved := false
		// Moves.
		for i := 0; i < n; i++ {
			for k := 0; k < g; k++ {
				old := de.gpuOf[i]
				if k == old {
					continue
				}
				evals++
				de.move(i, k)
				if de.objective() < cur.Objective-1e-9 {
					accept()
					improved = true
				} else {
					de.move(i, old)
				}
			}
		}
		// Swaps.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil || evals > deltaDescendEvalBudget {
				return cur, evals
			}
			for j := i + 1; j < n; j++ {
				gi, gj := de.gpuOf[i], de.gpuOf[j]
				if gi == gj {
					continue
				}
				evals++
				de.move(i, gj)
				de.move(j, gi)
				if de.objective() < cur.Objective-1e-9 {
					accept()
					improved = true
				} else {
					de.move(j, gj)
					de.move(i, gi)
				}
			}
		}
		if !improved || evals > deltaDescendEvalBudget {
			return cur, evals
		}
	}
}

// moveTime is the per-GPU half of a move: partition i's time leaves GPU from
// and lands on GPU to. The descent does the same arithmetic in locals;
// TestDeltaEvaluatorMatchesEvaluate drives the evaluator with it.
func (ev *evaluator) moveTime(i, from, to int) {
	ev.gpuT[from] -= ev.times[i]
	ev.gpuT[to] += ev.times[i]
}

// descentProblem draws a PDG of n partitions: a chain with random shortcut
// edges, host I/O at both ends, and partition times of at most maxUS — not
// integral, so GPU sums round. With maxUS around 7–10 µs the GPU times and
// the link times of a cold seed are the same size, so some candidates fall
// to the time bound and some to the links.
func descentProblem(t *testing.T, n, gpus int, maxUS float64, seed uint64) *Problem {
	t.Helper()
	state := seed
	rnd := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	work := make([]float64, n)
	hostIn := make([]int64, n)
	hostOut := make([]int64, n)
	var edges []pdg.Edge
	for i := range work {
		work[i] = float64(1+rnd(100_000)) / 100_000 * maxUS
	}
	hostIn[0], hostOut[n-1] = 60_000, 30_000
	for i := 0; i < n-1; i++ {
		edges = append(edges, pdg.Edge{From: i, To: i + 1, Bytes: int64(1 + rnd(200_000))})
		if j := i + 2 + rnd(16); j < n {
			edges = append(edges, pdg.Edge{From: i, To: j, Bytes: int64(1 + rnd(50_000))})
		}
	}
	p := synth(t, work, edges, hostIn, hostOut, gpus)
	p.FragmentIters = 4
	return p
}

// sameAssignment requires the same placement and the same objective bits.
func sameAssignment(t *testing.T, what string, got, want *Assignment) {
	t.Helper()
	for i := range want.GPUOf {
		if got.GPUOf[i] != want.GPUOf[i] {
			t.Fatalf("%s: partition %d on GPU %d, unfiltered descent put it on %d", what, i, got.GPUOf[i], want.GPUOf[i])
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v, unfiltered descent %v", what, got.Objective, want.Objective)
	}
}

// sameDescent holds one filtered descent to the unfiltered reference from
// the same seed.
func sameDescent(t *testing.T, what string, p *Problem, seed []int) descentStats {
	t.Helper()
	got, st := descendDelta(context.Background(), p, seed)
	want, _ := descendDeltaUnfiltered(context.Background(), p, seed)
	sameAssignment(t, what, got, want)
	return st
}

// TestDescendDeltaMatchesUnfiltered is the referee of the descent's
// candidate filter. Every cold seed, peer-to-peer and via-host, on a
// 600-partition instance whose descents all converge inside the evaluation
// budget and on one where the budget cuts a descent — the cut must fall on
// the same candidate — and the remap path, small and large: Refine from an
// assignment projected onto fewer GPUs.
func TestDescendDeltaMatchesUnfiltered(t *testing.T) {
	// mixed reports whether descents, taken together, both rejected
	// candidates on the time bound and scored survivors' links, and met both
	// kinds of swap-scan event: a survivor scored to an accept, and a
	// rejected swap whose undo left a rounding residue in gpuT.
	mixed := func(sts []descentStats) bool {
		var filtered, scored, accepts, residues int
		for _, st := range sts {
			filtered += st.timeRejected
			scored += st.candidates - st.timeRejected
			accepts += st.accepts
			residues += st.residues
		}
		return filtered > 0 && scored > 0 && accepts > 0 && residues > 0
	}
	// Partition times are sized per mode so GPU times and link times
	// compete: staging through the host triples the traffic on its links.
	for _, m := range []struct {
		name                     string
		viaHost                  bool
		convergesMaxUS, cutMaxUS float64
	}{{"p2p", false, 10, 100.0 / 15}, {"via-host", true, 30, 30}} {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			converges := descentProblem(t, 600, 4, m.convergesMaxUS, 0xD15C)
			converges.ViaHost = m.viaHost
			var sts []descentStats
			for s, seed := range coldSeeds(converges, Greedy(converges).GPUOf) {
				st := sameDescent(t, "converging "+seedNames[s], converges, seed)
				if st.budgetCut || st.accepts == 0 {
					t.Errorf("converging %s: %+v, want a descent that accepts and converges", seedNames[s], st)
				}
				sts = append(sts, st)
			}
			if !mixed(sts) {
				t.Errorf("converging: %+v miss a side of the filter or a kind of event", sts)
			}

			cut := descentProblem(t, 2000, 4, m.cutMaxUS, 0xD15C)
			cut.ViaHost = m.viaHost
			sts = sts[:0]
			for s, seed := range coldSeeds(cut, Greedy(cut).GPUOf) {
				st := sameDescent(t, "budget-cut "+seedNames[s], cut, seed)
				if st.budgetCut {
					if st.candidates <= deltaDescendEvalBudget {
						t.Errorf("budget-cut %s: cut at %d candidates, inside the budget", seedNames[s], st.candidates)
					}
					sts = append(sts, st)
				}
			}
			if len(sts) == 0 || !mixed(sts) {
				t.Errorf("budget-cut descents %+v, want at least one, filtering, scoring and meeting both kinds of event", sts)
			}

			// The remap path: a 4-GPU local optimum folded onto 2 GPUs, small
			// and large.
			for _, n := range []int{40, 600} {
				full := descentProblem(t, n, 4, m.convergesMaxUS, 0x2E3A9)
				full.ViaHost = m.viaHost
				half := *full
				half.Topo = topology.PairedTree(2)
				projected := append([]int(nil), localSearch(full).GPUOf...)
				for i := range projected {
					projected[i] %= 2
				}
				want, _ := descendDeltaUnfiltered(context.Background(), &half, projected)
				sameAssignment(t, "Refine from a projected seed", Refine(context.Background(), &half, projected), want)
			}
		})
	}
}
