package mapping

import (
	"context"
	"fmt"
	"sort"

	"streammap/internal/obs"
)

// PlaceLongestFirst is the balancing loop PrevWork and the driver's warm
// remap share: the listed partitions, longest T_i first (parts is
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

// SolveCtx is the communication-aware mapper: multi-seed local search (its
// seed descents parallel under opts.Workers), then — when the instance is
// within the exact-size threshold — the exact branch-and-bound seeded with
// the local optimum as its incumbent, under its node budget.
//
// Determinism: the selection is local search vs the exact arm seeded with
// it, whatever opts.Workers is — workers only change wall-clock time, and
// the exact arm stops on a node count, so even a truncated search is a
// function of the problem and the options. A context cancelled mid-solve
// cuts the descents and the exact arm short; what they had reached is a
// function of when the cancellation landed, so SolveCtx returns the
// context's error instead of it.
//
// Under a traced context the span SolveCtx runs in (the driver's stage.map)
// is noted with the winning method and which seed's descent local search
// kept; the descents are map.descent child spans and the exact arm a
// map.exact one, noted with its node counts and whether it closed.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Assignment, error) {
	opts = opts.Normalized()
	if p.PDG.NumParts() == 0 {
		return nil, fmt.Errorf("mapping: empty PDG")
	}
	if p.Topo.NumGPUs() == 1 {
		gpuOf := make([]int, p.PDG.NumParts())
		return Evaluate(p, gpuOf, "single-gpu"), nil
	}
	best, seed := localSearchCtx(ctx, p, opts.Workers, Greedy(p))
	if ctx.Err() == nil && (p.PDG.NumParts() <= opts.ILPMaxParts || opts.ForceILP) {
		// The exact arm re-scores its incumbent, so it loses only to a local
		// optimum more than the tolerance below what it found; ties go to it.
		if exact := solveExact(ctx, p, best, opts); exact.Objective <= best.Objective+1e-9 {
			best = exact
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapping: cancelled: %w", err)
	}
	obs.SpanFrom(ctx).Notef("winner=%s local_seed=%s objective_us=%g", best.Method, seed, best.Objective)
	return best, nil
}
