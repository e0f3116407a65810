package driver

import (
	"fmt"

	"streammap/internal/artifact"
	"streammap/internal/gpusim"
)

// Equivalent reports (as an error) the first difference between two
// compilations, and nil when they are the same compilation. It is the
// machine-checkable form of the pipeline's fidelity contract (DESIGN.md
// S10): Compile at one worker and at many, a rehydrated artifact and the
// compilation it was exported from, must agree — not approximately, but
// exactly, since every pass commits deterministically. A compilation is what
// it exports, so this is artifact.Equal of the two exports: options,
// profile, partitions with their layouts, PDG, assignment with its link
// loads, plan and remap provenance, byte for byte.
func Equivalent(a, b *Compiled) error {
	aa, err := a.Artifact()
	if err != nil {
		return fmt.Errorf("exporting first compilation: %w", err)
	}
	ba, err := b.Artifact()
	if err != nil {
		return fmt.Errorf("exporting second compilation: %w", err)
	}
	return artifact.Equal(aa, ba)
}

// SameThroughput runs both plans timing-only and compares the simulated
// steady-state throughput, which folds the whole plan (kernel times, routes,
// link contention) into one number. Exact float equality is intended: the
// simulator is deterministic, so equal plans produce bit-equal timelines.
func SameThroughput(a, b *Compiled, fragments int) error {
	ra, err := gpusim.RunTiming(a.Plan, fragments)
	if err != nil {
		return fmt.Errorf("running first plan: %w", err)
	}
	rb, err := gpusim.RunTiming(b.Plan, fragments)
	if err != nil {
		return fmt.Errorf("running second plan: %w", err)
	}
	if ra.PerFragmentUS != rb.PerFragmentUS || ra.MakespanUS != rb.MakespanUS {
		return fmt.Errorf("simulated throughput (%v us/frag, makespan %v) != (%v us/frag, makespan %v)",
			ra.PerFragmentUS, ra.MakespanUS, rb.PerFragmentUS, rb.MakespanUS)
	}
	return nil
}
