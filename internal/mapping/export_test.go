package mapping

import "context"

// Hooks for the external mapping_test package, which — unlike this one —
// may import driver and synth to draw compiler-produced problems.
var (
	DescendRescan  = descendRescan
	ColdSeeds      = coldSeeds
	DescentProblem = descentProblem
)

// DescendDelta runs the production descent and reports whether the
// evaluation budget cut it.
func DescendDelta(ctx context.Context, p *Problem, seed []int) (*Assignment, bool) {
	a, st := descendDelta(ctx, p, seed)
	return a, st.budgetCut
}
