// Package streammap is a communication-aware compiler that maps stream
// graphs (StreamIt-style synchronous dataflow programs) onto multi-GPU
// platforms, reproducing "Communication-aware Mapping of Stream Graphs for
// Multi-GPU Platforms" (Nguyen, 2016).
//
// The flow profiles every filter for the target GPU, partitions the graph
// with a four-phase heuristic driven by a GPU performance estimation engine,
// solves the partition-to-GPU assignment with an ILP over the PCIe tree
// topology, and emits an executable plan that runs — pipelined across
// fragments, with peer-to-peer transfers — on the included discrete-event
// multi-GPU simulator.
//
// Quick start:
//
//	s := streammap.Pipe("app", streammap.F(myFilter), ...)
//	g, err := streammap.Flatten("app", s)
//	c, err := streammap.Compile(g, streammap.Options{Topo: streammap.PairedTree(4)})
//	res, err := c.Execute(inputs, 64)
//
// Compilation runs as a staged pass-pipeline (profile -> partition -> pdg
// -> map -> plan); only the mapper's seed descents run in parallel, and the
// result is the same at any worker count. Each Compiled records per-stage
// timings. For servers compiling many graphs, NewService returns a
// concurrent compile service that deduplicates identical in-flight requests
// and caches results in an LRU keyed by the SHA-256 Digest of the graph's
// structure together with the normalized options (device, topology,
// fragment size, partitioner, mapper):
//
//	svc := streammap.NewService(streammap.ServiceConfig{})
//	c, err := svc.Compile(ctx, g, opts) // safe from any number of goroutines
//
// Compilations export as versioned, self-contained artifacts that outlive
// the process: Compiled.Artifact() captures the graph, the partitions with
// their kernel parameters and the assignment with its objective in a
// stable encoding stamped with the graph fingerprint and normalized
// options; what follows from those (the profile, SM layouts, the partition
// dependence graph, link loads, the executable plan) is re-derived on
// decode, by the same code a compile runs. An artifact encodes to
// deterministic bytes, decodes on any machine, and executes on the
// simulator without recompiling:
//
//	a, err := c.Artifact()
//	data, err := a.Encode()                  // persist / ship
//	b, err := streammap.DecodeArtifact(data) // later, elsewhere
//	res, err := streammap.Execute(b, 64)     // timing run, no compilation
//
// Setting ServiceConfig.CacheDir turns the compile service's cache into
// two tiers — the in-memory LRU in front of a content-addressed on-disk
// artifact store — so a restarted service warm-starts from disk.
//
// CompileCtx is the cancellable form of Compile. See the examples
// directory for complete programs and DESIGN.md for the architecture.
package streammap

import (
	"context"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// Re-exported stream-graph construction API (package sdf).
type (
	// Token is the unit of channel data.
	Token = sdf.Token
	// Filter is one actor.
	Filter = sdf.Filter
	// Work is the per-firing execution context.
	Work = sdf.Work
	// Stream is a structural composition node.
	Stream = sdf.Stream
	// Graph is a flattened stream graph.
	Graph = sdf.Graph
)

// Structural composition.
var (
	// F lifts a Filter into a Stream.
	F = sdf.F
	// Pipe composes streams sequentially.
	Pipe = sdf.Pipe
	// Split composes parallel branches with explicit splitter/joiner.
	Split = sdf.Split
	// SplitDupRR is duplicate-split / round-robin-join.
	SplitDupRR = sdf.SplitDupRR
	// SplitRRRR is round-robin split and join.
	SplitRRRR = sdf.SplitRRRR
	// LoopOf builds a feedback loop.
	LoopOf = sdf.LoopOf
	// Flatten elaborates a Stream into a Graph.
	Flatten = sdf.Flatten
	// NewFilter builds a single-input single-output filter.
	NewFilter = sdf.NewFilter
	// Identity copies n tokens per firing.
	Identity = sdf.Identity
)

// Devices and topologies.
type (
	// Device is a GPU model.
	Device = gpu.Device
	// Topology is a PCIe tree.
	Topology = topology.Tree
)

var (
	// M2090 is the paper's evaluation GPU.
	M2090 = gpu.M2090
	// C2070 is the previous work's GPU.
	C2070 = gpu.C2070
	// PairedTree builds a machine with g GPUs attached pairwise.
	PairedTree = topology.PairedTree
)

// Compilation: the flow's types (package driver) and the compile service
// (package core).
type (
	// Options configures the mapping flow.
	Options = driver.Options
	// Compiled is the result: partitions, assignment, executable plan, and
	// per-stage pipeline timings.
	Compiled = driver.Compiled
	// PartitionerKind selects the partitioning algorithm.
	PartitionerKind = driver.PartitionerKind
	// MapperKind selects the mapper.
	MapperKind = driver.MapperKind
	// StageMetric is one pipeline pass's recorded wall-clock cost.
	StageMetric = driver.StageMetric
	// Service is a concurrent compile service with an LRU result cache.
	Service = core.Service
	// ServiceConfig tunes a Service.
	ServiceConfig = core.ServiceConfig
	// ServiceStats is a snapshot of a Service's counters.
	ServiceStats = core.ServiceStats
)

// Partitioner and mapper choices (package driver).
const (
	// Alg1 is the paper's four-phase partitioning heuristic.
	Alg1 = driver.Alg1
	// PrevWorkPartitioner merges until the shared-memory limit ([7]).
	PrevWorkPartitioner = driver.PrevWorkPart
	// SinglePartition maps the whole graph as one kernel ([10]).
	SinglePartition = driver.SinglePart
	// ILPMapper is the communication-aware mapping of §3.2.2.
	ILPMapper = driver.ILPMapper
	// PrevWorkMapper is workload-only balancing with host staging.
	PrevWorkMapper = driver.PrevWorkMap
)

// Compile runs the full mapping flow on a stream graph.
func Compile(g *Graph, opts Options) (*Compiled, error) {
	return driver.Compile(context.Background(), g, opts)
}

// CompileCtx is Compile under a context: cancellation aborts between
// pipeline stages and inside the partition and map passes.
func CompileCtx(ctx context.Context, g *Graph, opts Options) (*Compiled, error) {
	return driver.Compile(ctx, g, opts)
}

// NewService returns a concurrent compile service: many goroutines may
// Compile through it at once; identical in-flight requests are deduplicated
// and results cached in an LRU keyed by the compilation's identity (graph
// structure and normalized options), backed — when ServiceConfig.CacheDir
// is set — by a content-addressed on-disk artifact store that survives
// restarts. Artifacts are persisted after the caller is answered: Close (or
// Flush) the service before exiting to wait for them.
func NewService(cfg ServiceConfig) *Service {
	return core.NewService(cfg)
}

// Compile artifacts.
type (
	// Artifact is a versioned, self-contained, serializable compilation
	// result: what a decoder needs to rebuild a compiled mapping, with no
	// reference into compiler internals. Obtain one with
	// Compiled.Artifact, persist it with Encode, and run it — without
	// recompiling — with Execute (timing) or ExecuteWith (functional,
	// against the original graph).
	Artifact = artifact.Artifact
	// Result is the outcome of a simulated pipelined multi-GPU run.
	Result = gpusim.Result
)

// ArtifactFormatVersion is the wire-format version this build encodes and
// decodes. DecodeArtifact rejects artifacts from other versions.
const ArtifactFormatVersion = artifact.FormatVersion

// DecodeArtifact parses and validates an encoded compile artifact. It
// rejects truncated or corrupt input and artifacts written by other format
// versions.
func DecodeArtifact(data []byte) (*Artifact, error) {
	return artifact.Decode(data)
}

// Execute rebuilds a decoded artifact's compilation over a structural twin
// of its graph — no compilation pass runs — and runs the timing simulation.
// Outputs is nil in the result; use ExecuteWith for functional execution.
func Execute(a *Artifact, fragments int) (*Result, error) {
	c, err := driver.Rehydrate(a)
	if err != nil {
		return nil, err
	}
	return gpusim.RunTiming(c.Plan, fragments)
}

// ExecuteWith rebuilds a decoded artifact's compilation against the
// caller's graph — the one carrying the real work functions, which must
// fingerprint to the compiled graph — and runs it functionally, moving real
// tokens through the pipelined multi-GPU simulation.
func ExecuteWith(a *Artifact, g *Graph, inputs [][]Token, fragments int) (*Result, error) {
	opts, err := driver.ImportOptions(a.Options)
	if err != nil {
		return nil, err
	}
	c, err := driver.FromArtifact(g, a, opts)
	if err != nil {
		return nil, err
	}
	return c.Execute(inputs, fragments)
}
