package mapping

import (
	"context"
	"fmt"
	"sort"
	"time"

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

// SolveCtx is the communication-aware mapper: the ILP formulation when the
// instance is within reach of the built-in solver, seeded and backed by
// local search. It races the greedy placer, the communication-blind LPT
// baseline, the multi-seed local search (its seed descents themselves
// parallel under opts.Workers) and — once the local optimum is in hand as
// the incumbent — the exact ILP, all under the ILP time budget and the
// context.
//
// Determinism: when the context stays live the final selection is local
// search vs the ILP seeded with it, whatever opts.Workers is — workers only
// change wall-clock time. The extra racers only decide the answer when the
// context is cancelled mid-solve, where SolveCtx degrades to the best
// feasible assignment found so far instead of failing.
//
// Under a traced context the span SolveCtx runs in (the driver's stage.map)
// is noted with the winning method and which seed's descent local search
// kept; the descents themselves are map.descent child spans.
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
	ilpOpts := opts
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < ilpOpts.TimeBudget {
			ilpOpts.TimeBudget = rem
		}
	}
	if ilpOpts.TimeBudget <= 0 {
		return heur, nil
	}
	ilp, err := solveILP(p, heur, ilpOpts)
	if err != nil {
		return heur, nil // solver trouble: fall back to the heuristic
	}
	if heur.Objective < ilp.Objective-1e-9 {
		return heur, nil
	}
	return ilp, nil
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
