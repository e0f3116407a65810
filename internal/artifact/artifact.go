// Package artifact defines the versioned, self-contained wire form of a
// compilation: everything needed to execute, inspect, persist or ship a
// compiled mapping, with no reference into the compiler's internal
// structures. The package imports only the stream-graph model (sdf), the
// device/topology models (gpu, topology) and the simulator (gpusim) —
// never the estimation engine (pee), the partitioner (partition), the PDG
// builder (pdg) or the mapper (mapping); those packages each grow an
// explicit export/import form that converts to and from these wire types.
//
// An Artifact is:
//
//   - versioned: Format names the encoding; Decode rejects other versions,
//     and the two-tier service cache treats a version mismatch as a miss.
//   - content-addressed: the graph fingerprint and the normalized options
//     are baked in, so a decoded artifact can be validated against the
//     request that looks it up.
//   - executable: Execute lowers the artifact to a gpusim.Plan — via a
//     structural twin of the graph rebuilt from the embedded GraphSpec —
//     and runs the timing simulation without recompiling. ExecuteWith runs
//     functionally against a caller-supplied graph carrying the real work
//     functions (fingerprint-checked).
//
// The encoding is deterministic JSON: no maps, struct fields in declaration
// order, float64 values round-tripping exactly through Go's shortest-form
// formatting. It holds nothing that depends on the run that produced it —
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
const FormatVersion = 3

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

// Profile is the wire form of the per-filter profiling annotation.
type Profile struct {
	C1              float64   `json:"c1"`
	C2              float64   `json:"c2"`
	PerFiringCycles []float64 `json:"perFiringCycles"`
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
	// ComputeBound is the estimator's compute/IO classification, carried on
	// the wire rather than re-derived so every consumer of the artifact
	// applies the same rule the compiler did.
	ComputeBound bool `json:"computeBound"`
}

// Partition is the wire form of one selected kernel-to-be: its node set in
// the parent graph and the estimator's verdict with the chosen kernel
// parameters. The granularity scale and the shared-memory layout are
// functions of the node set, so the decoder derives them.
type Partition struct {
	Nodes []int    `json:"nodes"`
	Est   Estimate `json:"est"`
}

// PDGEdge is the wire form of one partition-dependence edge.
type PDGEdge struct {
	From      int   `json:"from"`
	To        int   `json:"to"`
	Bytes     int64 `json:"bytes"`
	StreamCut []int `json:"streamCut,omitempty"`
}

// PDG is the wire form of the partition dependence graph.
type PDG struct {
	WorkUS       []float64 `json:"workUS"`
	Edges        []PDGEdge `json:"edges,omitempty"`
	HostInBytes  []int64   `json:"hostInBytes"`
	HostOutBytes []int64   `json:"hostOutBytes"`
	Topo         []int     `json:"topo"`
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
	// (sdf.Graph.Fingerprint); Execute and the disk cache validate it.
	Fingerprint uint64 `json:"fingerprint"`
	// Graph is the structural description of the compiled stream graph.
	Graph sdf.GraphSpec `json:"graph"`

	Options    Options     `json:"options"`
	Profile    Profile     `json:"profile"`
	Partitions []Partition `json:"partitions"`
	PDG        PDG         `json:"pdg"`
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
// sizes and index ranges. Decode calls it; importers can rely on it.
func (a *Artifact) Validate() error {
	if a.Format != FormatVersion {
		return fmt.Errorf("artifact: format version %d, this build reads %d", a.Format, FormatVersion)
	}
	P := len(a.Partitions)
	if P == 0 {
		return fmt.Errorf("artifact: no partitions")
	}
	n := len(a.Graph.Nodes)
	if n == 0 {
		return fmt.Errorf("artifact: empty graph")
	}
	if len(a.Profile.PerFiringCycles) != n {
		return fmt.Errorf("artifact: %d per-firing costs for %d nodes", len(a.Profile.PerFiringCycles), n)
	}
	// Exact cover: every graph node in exactly one partition. This keeps the
	// self-contained Execute path as strict as the FromArtifact path — a
	// corrupt artifact must never silently simulate an invalid partitioning.
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for i, p := range a.Partitions {
		if len(p.Nodes) == 0 {
			return fmt.Errorf("artifact: partition %d is empty", i)
		}
		for _, id := range p.Nodes {
			if id < 0 || id >= n {
				return fmt.Errorf("artifact: partition %d references node %d of %d", i, id, n)
			}
			if owner[id] != -1 {
				return fmt.Errorf("artifact: node %d owned by partitions %d and %d", id, owner[id], i)
			}
			owner[id] = i
		}
		if p.Est.S <= 0 || p.Est.W <= 0 || p.Est.F <= 0 {
			return fmt.Errorf("artifact: partition %d has non-positive kernel parameters %+v", i, p.Est)
		}
	}
	for id, o := range owner {
		if o == -1 {
			return fmt.Errorf("artifact: node %d is in no partition", id)
		}
	}
	if len(a.PDG.WorkUS) != P || len(a.PDG.HostInBytes) != P || len(a.PDG.HostOutBytes) != P || len(a.PDG.Topo) != P {
		return fmt.Errorf("artifact: pdg sections sized %d/%d/%d/%d for %d partitions",
			len(a.PDG.WorkUS), len(a.PDG.HostInBytes), len(a.PDG.HostOutBytes), len(a.PDG.Topo), P)
	}
	for _, e := range a.PDG.Edges {
		if e.From < 0 || e.From >= P || e.To < 0 || e.To >= P {
			return fmt.Errorf("artifact: pdg edge %d->%d out of range", e.From, e.To)
		}
	}
	seen := make([]bool, P)
	pos := make([]int, P)
	for i, pi := range a.PDG.Topo {
		if pi < 0 || pi >= P || seen[pi] {
			return fmt.Errorf("artifact: pdg topo order is not a permutation")
		}
		seen[pi] = true
		pos[pi] = i
	}
	// The stored order must actually topologically sort the stored edges —
	// the same check pdg.Import applies, so the self-contained Execute path
	// is exactly as strict as the FromArtifact path.
	for _, e := range a.PDG.Edges {
		if pos[e.From] >= pos[e.To] {
			return fmt.Errorf("artifact: pdg topo order places %d after its consumer %d", e.From, e.To)
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
