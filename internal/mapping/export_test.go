package mapping

import "context"

// Hooks for the external mapping_test package, which — unlike this one —
// may import driver and synth to draw compiler-produced problems.
var (
	DescendRescan          = descendRescan
	DescendDeltaUnfiltered = descendDeltaUnfiltered
	GreedyRescan           = greedyRescan
	ColdSeeds              = coldSeeds
	DescentProblem         = descentProblem
)

// DescendDelta runs the production descent and reports whether the
// evaluation budget cut it and how many candidates it scored.
func DescendDelta(ctx context.Context, p *Problem, seed []int) (*Assignment, bool, int) {
	a, st := descendDelta(ctx, p, seed)
	return a, st.budgetCut, st.candidates
}

// BruteForce, LocalSearch and SubtreeSignatures let the exact arm's external
// referees reach the exhaustive enumerator, the incumbent SolveCtx seeds the
// arm with, and the symmetry classes.
var (
	BruteForce        = bruteForce
	LocalSearch       = localSearch
	SubtreeSignatures = subtreeSignatures
)

// ExactStats is exactStats for the external tests.
type ExactStats struct {
	Nodes, TimeCut, LinkCut, SymmetrySkips int64
	Closed, Improved                       bool
}

// ExactSearch runs the exact arm's search for a placement strictly below
// incumbent and returns it (nil when there is none) with the search's
// counts. With symmetry off every twin class is dissolved, so interchangeable
// subtrees are all entered: the referee the symmetry rule is held to.
func ExactSearch(ctx context.Context, p *Problem, incumbent float64, budgetNodes int64, symmetry bool) ([]int, ExactStats) {
	s := newExactSearch(ctx, p, incumbent, budgetNodes)
	if !symmetry {
		for i := range s.prevTwin {
			s.prevTwin[i] = -1
		}
	}
	gpuOf := s.run()
	return gpuOf, ExactStats{s.st.nodes, s.st.timeCut, s.st.linkCut, s.st.symmetrySkips, s.st.closed, s.st.improved}
}

// PartTimes is partTimes for the external tests.
var PartTimes = partTimes
