package mapping

import (
	"context"
	"fmt"
	"sort"

	"streammap/internal/obs"
)

// PlaceLongestFirst is the balancing loop LPT, PrevWork and the driver's
// warm remap share: the listed partitions, longest T_i first (parts is
// sorted in place, stable on ties), each go to the GPU whose load is
// currently least (the lowest index on ties). gpuOf and load are updated in
// place, so a caller may start from a partial placement and its loads.
func PlaceLongestFirst(p *Problem, parts, gpuOf []int, load []float64) {
	sort.SliceStable(parts, func(a, b int) bool {
		return p.PartTimeUS(parts[a]) > p.PartTimeUS(parts[b])
	})
	for _, pi := range parts {
		best := 0
		for k := 1; k < len(load); k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		gpuOf[pi] = best
		load[best] += p.PartTimeUS(pi)
	}
}

// lptPlacement balances every partition's T_i across the GPUs, ignoring
// every transfer.
func lptPlacement(p *Problem) []int {
	parts := make([]int, p.PDG.NumParts())
	for i := range parts {
		parts[i] = i
	}
	gpuOf := make([]int, len(parts))
	PlaceLongestFirst(p, parts, gpuOf, make([]float64, p.Topo.NumGPUs()))
	return gpuOf
}

// LPT is the communication-blind baseline: longest-processing-time-first
// balancing of T_i across GPUs, ignoring every transfer. It is the previous
// work's mapping policy evaluated under the current execution model, and one
// leg of the portfolio solver.
func LPT(p *Problem) *Assignment {
	return Evaluate(p, lptPlacement(p), "lpt")
}

// SolveCtx is the communication-aware mapper: local search, then — when the
// instance is within the exact-size threshold — the exact branch-and-bound
// seeded with the local optimum as its incumbent. It races the greedy
// placer, the communication-blind LPT baseline and the multi-seed local
// search (its seed descents themselves parallel under opts.Workers); the
// exact arm runs last, under its node budget and the context.
//
// Determinism: when the context stays live the final selection is local
// search vs the exact arm seeded with it, whatever opts.Workers is — workers
// only change wall-clock time, and the exact arm stops on a node count, so
// even a truncated search is a function of the problem and the options. The
// extra racers only decide the answer when the context is cancelled
// mid-solve, where SolveCtx degrades to the best feasible assignment found
// so far instead of failing.
//
// Under a traced context the span SolveCtx runs in (the driver's stage.map)
// is noted with the winning method and which seed's descent local search
// kept; the descents are map.descent child spans and the exact arm a
// map.exact one, noted with its node counts and whether it closed.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (a *Assignment, err error) {
	opts = opts.withDefaults()
	if p.PDG.NumParts() == 0 {
		return nil, fmt.Errorf("mapping: empty PDG")
	}
	if p.Topo.NumGPUs() == 1 {
		gpuOf := make([]int, p.PDG.NumParts())
		return Evaluate(p, gpuOf, "single-gpu"), nil
	}
	var heur *Assignment
	var seed string // whose descent heur is
	defer func() {
		if a != nil {
			obs.SpanFrom(ctx).Notef("winner=%s local_seed=%s objective_us=%g", a.Method, seed, a.Objective)
		}
	}()

	var lpt *Assignment
	lptDone := make(chan struct{})
	go func() { defer close(lptDone); lpt = LPT(p) }()

	// Greedy is both a racer and local search's first seed — computed once.
	greedy := Greedy(p)
	heur, seed = localSearchCtx(ctx, p, opts.Workers, greedy)
	<-lptDone

	if ctx.Err() != nil {
		return anytimeBest(heur, greedy, lpt), nil
	}
	if p.PDG.NumParts() > opts.ILPMaxParts && !opts.ForceILP {
		return heur, nil
	}
	exact := solveExact(ctx, p, heur, opts)
	if ctx.Err() != nil {
		return anytimeBest(exact, heur, greedy, lpt), nil
	}
	return anytimeBest(exact, heur), nil
}

// anytimeBest picks the lowest-objective assignment, preferring earlier
// candidates on ties so the choice is deterministic.
func anytimeBest(cands ...*Assignment) *Assignment {
	var best *Assignment
	for _, c := range cands {
		if c == nil {
			continue
		}
		if best == nil || c.Objective < best.Objective-1e-9 {
			best = c
		}
	}
	return best
}
