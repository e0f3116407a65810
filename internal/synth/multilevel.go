// Differential referee for the multilevel partitioner: the coarsened path
// trades the exact Try-Merge flow for scalability, so instead of bit
// equality it is held to (a) full structural validity and (b) a pinned
// simulated-throughput bound against the exact compilation of the same
// scenario.
package synth

import (
	"context"
	"fmt"

	"streammap/internal/driver"
	"streammap/internal/gpusim"
)

// MLQualityBound is the pinned quality contract: the multilevel path's
// simulated steady-state time per fragment may exceed the exact path's by at
// most this factor on any scenario where both compile.
const MLQualityBound = 1.05

// CheckMultilevel compiles the scenario through the exact Algorithm 1 flow
// (size switch disabled) and through the forced multilevel path, and asserts:
//
//   - the multilevel path at one worker and at the scenario's worker count
//     agrees bit for bit, like the exact path does;
//   - both paths agree on rejection: infeasible scenarios fail identically;
//   - the multilevel compilation satisfies every structural invariant
//     (CheckInvariants) and carries its MLStats provenance;
//   - simulated throughput is within bound (≥ 1; MLQualityBound is the
//     pinned contract) of the exact compilation's.
func CheckMultilevel(ctx context.Context, sc *Scenario, bound float64) error {
	fail := func(stage string, err error) error {
		return fmt.Errorf("synth: scenario %s: multilevel %s: %w", sc.Name, stage, err)
	}

	ga, err := BuildGraph(sc.GraphP)
	if err != nil {
		return fail("generate", err)
	}
	gb, err := BuildGraph(sc.GraphP)
	if err != nil {
		return fail("generate", err)
	}
	gc, err := BuildGraph(sc.GraphP)
	if err != nil {
		return fail("generate", err)
	}

	exactOpts := sc.Opts
	exactOpts.Partitioner = driver.Alg1
	exactOpts.MultilevelThreshold = driver.MultilevelOff
	mlOpts := sc.Opts
	mlOpts.Partitioner = driver.MultilevelPart

	exact, eerr := driver.Compile(ctx, ga, exactOpts)
	mls, serr := driver.Compile(ctx, gb, serialOpts(mlOpts))
	mlp, perr := driver.Compile(ctx, gc, mlOpts)

	// The multilevel path itself must be worker-count deterministic.
	switch {
	case serr != nil && perr != nil:
		if serr.Error() != perr.Error() {
			return fail("compile", fmt.Errorf("flows fail differently: serial %q, pipeline %q", serr, perr))
		}
	case serr != nil:
		return fail("compile", fmt.Errorf("serial fails (%v) but pipeline succeeds", serr))
	case perr != nil:
		return fail("compile", fmt.Errorf("pipeline fails (%v) but serial succeeds", perr))
	default:
		if err := driver.Equivalent(mls, mlp); err != nil {
			return fail("serial-vs-pipeline", err)
		}
	}

	// Feasibility must agree with the exact path: the multilevel seed falls
	// back level by level and reports the exact path's own error at level 0.
	switch {
	case eerr != nil && perr != nil:
		if eerr.Error() != perr.Error() {
			return fail("rejection", fmt.Errorf("paths fail differently: exact %q, multilevel %q", eerr, perr))
		}
		return nil // agreed rejection
	case eerr != nil:
		return fail("rejection", fmt.Errorf("exact fails (%v) but multilevel succeeds", eerr))
	case perr != nil:
		return fail("rejection", fmt.Errorf("multilevel fails (%v) but exact succeeds", perr))
	}

	if mlp.Parts.ML == nil {
		return fail("provenance", fmt.Errorf("multilevel compilation carries no MLStats"))
	}
	if exact.Parts.ML != nil {
		return fail("provenance", fmt.Errorf("exact compilation carries MLStats %v", exact.Parts.ML))
	}
	if err := CheckInvariants(mlp); err != nil {
		return fail("invariants", err)
	}

	const fragments = 24
	re, err := gpusim.RunTiming(exact.Plan, fragments)
	if err != nil {
		return fail("simulate exact", err)
	}
	rm, err := gpusim.RunTiming(mlp.Plan, fragments)
	if err != nil {
		return fail("simulate", err)
	}
	if re.PerFragmentUS <= 0 {
		return fail("simulate exact", fmt.Errorf("degenerate per-fragment time %v", re.PerFragmentUS))
	}
	if ratio := rm.PerFragmentUS / re.PerFragmentUS; ratio > bound {
		return fail("quality", fmt.Errorf("throughput ratio %.4f exceeds bound %.4f (multilevel %v us/frag, exact %v us/frag)",
			ratio, bound, rm.PerFragmentUS, re.PerFragmentUS))
	}
	return nil
}
