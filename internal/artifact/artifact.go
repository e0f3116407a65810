// Package artifact defines the versioned wire form of a compilation: what
// a decoder needs to rebuild the compiled mapping without recompiling, with
// no reference into the compiler's internal structures. The package imports
// only the stream-graph model (sdf) and the device/topology models (gpu,
// topology) — never the estimation engine (pee), the partitioner
// (partition), the PDG builder (pdg), the mapper (mapping) or the simulator
// (gpusim); those packages each grow an explicit export/import form that
// converts to and from these wire types.
//
// An Artifact is:
//
//   - versioned: Format names the encoding; Decode rejects other versions,
//     and the two-tier service cache treats a version mismatch as a miss.
//   - content-addressed: the graph fingerprint and the normalized options
//     are baked in, so a decoded artifact can be validated against the
//     request that looks it up.
//   - minimal: it carries only what its decoder cannot derive — the graph
//     (each rate declared once, on its port), the options, each partition's
//     node list and estimate, and the placement with its objective.
//     driver.FromArtifact (and driver.Rehydrate, over a structural twin
//     rebuilt from the embedded GraphSpec) re-profiles the graph, rebuilds
//     the partitions and the PDG, re-evaluates the placement and lowers the
//     plan, the same way a compile does.
//
// The encoding is deterministic compact JSON: no maps, struct fields in
// declaration order, float64 values round-tripping exactly through Go's
// shortest-form formatting. It holds nothing that depends on the run that produced it —
// no clock, no counter, no worker count — so a key determines its bytes:
// any two compilations of one (graph, device, topology, options) encode
// identically, and byte equality (Equal) is the one comparison there is.
package artifact

import (
	"fmt"

	"streammap/internal/gpu"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// FormatVersion is the current encoding version. Bump it on any change to
// the wire schema or to the meaning of an existing field; decoders reject
// artifacts from other versions, and the disk cache recompiles over them.
const FormatVersion = 5

// Options is the wire form of the normalized compile options that produced
// the artifact. Workers is deliberately absent: it changes wall-clock,
// never the result.
type Options struct {
	Device        gpu.Device    `json:"device"`
	Topo          topology.Spec `json:"topo"`
	FragmentIters int           `json:"fragmentIters"`
	Partitioner   string        `json:"partitioner"`
	Mapper        string        `json:"mapper"`
	ILPMaxParts   int           `json:"ilpMaxParts"`
	ILPBudgetNS   int64         `json:"ilpBudgetNS"`
	ForceILP      bool          `json:"forceILP,omitempty"`

	// MultilevelThreshold is the normalized node-count threshold at which
	// Alg1 compiles switch to the multilevel path (-1 = never); normalized
	// options never hold zero, so every artifact carries it.
	MultilevelThreshold int `json:"multilevelThreshold,omitempty"`
}

// Estimate is the wire form of the estimation engine's verdict for one
// partition.
type Estimate struct {
	S        int     `json:"s"`
	W        int     `json:"w"`
	F        int     `json:"f"`
	SMBytes  int64   `json:"smBytes"`
	DBytes   int64   `json:"dBytes"`
	TcompUS  float64 `json:"tcompUS"`
	TdtUS    float64 `json:"tdtUS"`
	TdbUS    float64 `json:"tdbUS"`
	TexecUS  float64 `json:"texecUS"`
	TUS      float64 `json:"tUS"`
	LaunchUS float64 `json:"launchUS"`
}

// Partition is the wire form of one selected kernel-to-be: its node set in
// the parent graph and the estimator's verdict with the chosen kernel
// parameters. The granularity scale, the shared-memory layout and the
// partition's PDG edges and host I/O are functions of the node sets, so the
// decoder derives them.
type Partition struct {
	Nodes []int    `json:"nodes"`
	Est   Estimate `json:"est"`
}

// Assignment is the wire form of the partition-to-GPU mapping and the
// objective (Tmax) it was chosen for. The per-GPU and per-link loads are an
// evaluation of GPUOf, which the decoder re-runs and holds to Objective.
type Assignment struct {
	GPUOf     []int   `json:"gpuOf"`
	Method    string  `json:"method"`
	Objective float64 `json:"objective"`
}

// Stage was one compile pass's wall-clock provenance on the wire until
// format 2. Nothing fills or encodes it; it stays declared only because
// bench/ (frozen by BENCHMARK.json) still assigns Artifact.Stages, and the
// next benchmark PR drops the type and the field together. Pass timings live
// in driver.Compiled.Stages, streammap_stage_duration_seconds and the
// stage.* spans.
type Stage struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"durationNS"`
	Info       string `json:"info,omitempty"`
}

// RemapInfo is the degraded-operation provenance of a remapped artifact:
// which machine the compilation originally targeted and what was reused.
// driver.Remap stamps it; a cold compilation never carries one, so its
// presence is what tells a remapped artifact from a compiled one.
type RemapInfo struct {
	// FromTopo is the healthy topology the artifact was first compiled for.
	FromTopo topology.Spec `json:"fromTopo"`
	// FromObjective is the mapping objective (Tmax, µs) on the healthy
	// machine, for degradation-cost reporting.
	FromObjective float64 `json:"fromObjective"`
	// Remerged is true when surviving devices were outnumbered by partitions
	// and a partition re-merge beat remapping the original partitions.
	Remerged bool `json:"remerged,omitempty"`
}

// Artifact is a complete, self-contained compilation result.
type Artifact struct {
	// Format is the encoding version (FormatVersion at encode time).
	Format int `json:"format"`
	// Fingerprint is the structural hash of the compiled graph
	// (sdf.Graph.Fingerprint); driver.FromArtifact validates it.
	Fingerprint uint64 `json:"fingerprint"`
	// Graph is the structural description of the compiled stream graph.
	Graph sdf.GraphSpec `json:"graph"`

	Options    Options     `json:"options"`
	Partitions []Partition `json:"partitions"`
	Assignment Assignment  `json:"assignment"`

	// Stages is not part of the encoding (see Stage).
	Stages []Stage `json:"-"`

	// Remap is present iff this artifact was produced by remapping an
	// earlier compilation onto a degraded topology (see RemapInfo).
	Remap *RemapInfo `json:"remap,omitempty"`
}

// NumPartitions returns the partition count.
func (a *Artifact) NumPartitions() int { return len(a.Partitions) }

// Validate checks the artifact's internal consistency: version, section
// sizes and index ranges. Decode calls it. The partitions' node lists are
// the decoder's to check: driver.FromArtifact re-extracts them
// (partition.ImportResult holds their exact cover) and rebuilds the PDG over
// them (pdg.Build rejects a cyclic quotient, so a non-convex partition).
func (a *Artifact) Validate() error {
	if a.Format != FormatVersion {
		return fmt.Errorf("artifact: format version %d, this build reads %d", a.Format, FormatVersion)
	}
	P := len(a.Partitions)
	if P == 0 {
		return fmt.Errorf("artifact: no partitions")
	}
	if len(a.Graph.Nodes) == 0 {
		return fmt.Errorf("artifact: empty graph")
	}
	for i, p := range a.Partitions {
		if len(p.Nodes) == 0 {
			return fmt.Errorf("artifact: partition %d is empty", i)
		}
		if p.Est.S <= 0 || p.Est.W <= 0 || p.Est.F <= 0 {
			return fmt.Errorf("artifact: partition %d has non-positive kernel parameters %+v", i, p.Est)
		}
	}
	if len(a.Assignment.GPUOf) != P {
		return fmt.Errorf("artifact: assignment covers %d of %d partitions", len(a.Assignment.GPUOf), P)
	}
	gpus := len(a.Options.Topo.GPUNodes)
	for pi, gi := range a.Assignment.GPUOf {
		if gi < 0 || gi >= gpus {
			return fmt.Errorf("artifact: partition %d assigned to gpu %d of %d", pi, gi, gpus)
		}
	}
	if a.Options.FragmentIters <= 0 {
		return fmt.Errorf("artifact: non-positive FragmentIters %d", a.Options.FragmentIters)
	}
	return nil
}
