package mapping

import (
	"context"
	"math"

	"streammap/internal/topology"
)

// rescanEvaluator and descendRescan are the descent that served instances of
// up to 512 partitions until descendDelta became the only one: every
// candidate is scored from scratch (Evaluate's own arithmetic, in Evaluate's
// order, so no rounding residue survives a rejected candidate), every accept
// re-runs Evaluate, and it runs to quiescence with no evaluation budget.
// They exist only as the referee TestDescentMatchesRescan holds descendDelta
// to.
type rescanEvaluator struct {
	p     *Problem
	times []float64
	gpuT  []float64
	loads []int64
}

func newRescanEvaluator(p *Problem) *rescanEvaluator {
	ev := &rescanEvaluator{
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

// objective returns Evaluate(p, gpuOf, ...).Objective — unless the per-GPU
// times alone already reach cut, in which case it returns that lower bound.
func (ev *rescanEvaluator) objective(gpuOf []int, cut float64) float64 {
	p, t := ev.p, ev.p.Topo
	for i := range ev.gpuT {
		ev.gpuT[i] = 0
	}
	B := int64(p.FragmentIters)
	for i, k := range gpuOf {
		ev.gpuT[k] += ev.times[i]
	}
	obj := gpuMax(ev.gpuT)
	if obj >= cut {
		return obj
	}
	for i := range ev.loads {
		ev.loads[i] = 0
	}
	for _, e := range p.PDG.Edges {
		gs, gd := gpuOf[e.From], gpuOf[e.To]
		if gs == gd {
			continue
		}
		if p.ViaHost {
			addLoad(ev.loads, t.RouteViaHost(gs, gd), e.Bytes*B)
		} else {
			addLoad(ev.loads, t.Route(gs, gd), e.Bytes*B)
		}
	}
	for i, k := range gpuOf {
		if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
			addLoad(ev.loads, t.Route(topology.Host, k), hb)
		}
		if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
			addLoad(ev.loads, t.Route(k, topology.Host), hb)
		}
	}
	return linkMax(t, ev.loads, obj)
}

// greedyRescan is Greedy as it was before it scored trials by their delta:
// every trial rebuilds the evaluator from the partial placement (reset, cut
// at the best objective so far). It exists only as the referee
// TestGreedyMatchesRescan holds Greedy to.
func greedyRescan(p *Problem) *Assignment {
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

func descendRescan(ctx context.Context, p *Problem, gpuOf []int) *Assignment {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	ev := newRescanEvaluator(p)
	cur := Evaluate(p, gpuOf, "local")
	cand := append([]int(nil), cur.GPUOf...)
	// improves scores cand against the acceptance threshold and adopts it
	// when it wins.
	improves := func() bool {
		thr := cur.Objective - 1e-9
		if !(ev.objective(cand, thr) < thr) {
			return false
		}
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
	return cur
}
