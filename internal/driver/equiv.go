package driver

import (
	"fmt"

	"streammap/internal/gpusim"
)

// Equivalent reports (as an error) the first difference between the
// artifacts of two compilations of the same graph under the same options.
// It is the machine-checkable form of the pipeline's fidelity contract
// (DESIGN.md S10): Compile at one worker and at many must agree on
// partitions, the partition dependence graph, the assignment and its cost —
// not approximately, but exactly, since every pass commits deterministically.
func Equivalent(a, b *Compiled) error {
	if len(a.Parts.Parts) != len(b.Parts.Parts) {
		return fmt.Errorf("partition count %d != %d", len(a.Parts.Parts), len(b.Parts.Parts))
	}
	for i, ap := range a.Parts.Parts {
		bp := b.Parts.Parts[i]
		if !ap.Set.Equal(bp.Set) {
			return fmt.Errorf("partition %d: node sets %v != %v", i, ap.Set, bp.Set)
		}
		if ap.Est.Params != bp.Est.Params {
			return fmt.Errorf("partition %d: kernel params %+v != %+v", i, ap.Est.Params, bp.Est.Params)
		}
		if ap.Est.TUS != bp.Est.TUS || ap.Est.SMBytes != bp.Est.SMBytes {
			return fmt.Errorf("partition %d: estimate (T=%v, SM=%d) != (T=%v, SM=%d)",
				i, ap.Est.TUS, ap.Est.SMBytes, bp.Est.TUS, bp.Est.SMBytes)
		}
		if ap.Sub.Scale != bp.Sub.Scale {
			return fmt.Errorf("partition %d: scale %d != %d", i, ap.Sub.Scale, bp.Sub.Scale)
		}
	}

	if len(a.PDG.Edges) != len(b.PDG.Edges) {
		return fmt.Errorf("pdg edge count %d != %d", len(a.PDG.Edges), len(b.PDG.Edges))
	}
	for i, ae := range a.PDG.Edges {
		be := b.PDG.Edges[i]
		if ae.From != be.From || ae.To != be.To || ae.Bytes != be.Bytes {
			return fmt.Errorf("pdg edge %d: (%d->%d, %dB) != (%d->%d, %dB)",
				i, ae.From, ae.To, ae.Bytes, be.From, be.To, be.Bytes)
		}
	}
	for i := range a.PDG.HostInBytes {
		if a.PDG.HostInBytes[i] != b.PDG.HostInBytes[i] || a.PDG.HostOutBytes[i] != b.PDG.HostOutBytes[i] {
			return fmt.Errorf("pdg host I/O differs at partition %d", i)
		}
	}

	if a.Assign.Objective != b.Assign.Objective {
		return fmt.Errorf("assignment cost %v != %v", a.Assign.Objective, b.Assign.Objective)
	}
	for i := range a.Assign.GPUOf {
		if a.Assign.GPUOf[i] != b.Assign.GPUOf[i] {
			return fmt.Errorf("assignment differs at partition %d: gpu %d != %d",
				i, a.Assign.GPUOf[i], b.Assign.GPUOf[i])
		}
	}
	return nil
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
