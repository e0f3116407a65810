// Package core is the public face of the compilation flow. The flow itself
// — profile -> partition -> pdg -> map -> plan — lives in package driver as
// an explicit pass-pipeline with named, timed, cancellable stages; core
// re-exports the driver types and adds Service, a concurrent compile
// service with an LRU result cache for serving many graphs.
package core

import (
	"context"

	"streammap/internal/driver"
	"streammap/internal/sdf"
)

// PartitionerKind selects the partitioning algorithm.
type PartitionerKind = driver.PartitionerKind

// Partitioners.
const (
	// Alg1 is the paper's four-phase heuristic.
	Alg1 = driver.Alg1
	// PrevWorkPart merges until the SM requirement is violated ([7]).
	PrevWorkPart = driver.PrevWorkPart
	// SinglePart maps the whole graph as one kernel ([10], the SOSP
	// baseline).
	SinglePart = driver.SinglePart
	// MultilevelPart forces the multilevel coarsen→partition→refine path.
	MultilevelPart = driver.MultilevelPart
)

// Multilevel threshold sentinels (Options.MultilevelThreshold).
const (
	// DefaultMultilevelThreshold is the node count at which Alg1 compiles
	// switch to the multilevel path.
	DefaultMultilevelThreshold = driver.DefaultMultilevelThreshold
	// MultilevelOff disables the size-based switch.
	MultilevelOff = driver.MultilevelOff
)

// MapperKind selects the partition-to-GPU mapper.
type MapperKind = driver.MapperKind

// Mappers.
const (
	// ILPMapper is the communication-aware ILP of §3.2.2 (raced as a solver
	// portfolio with local-search seeding/fallback).
	ILPMapper = driver.ILPMapper
	// PrevWorkMap is workload-only balancing with host-staged transfers.
	PrevWorkMap = driver.PrevWorkMap
)

// Options configures a compilation.
type Options = driver.Options

// StageMetric records one pipeline pass's wall-clock cost.
type StageMetric = driver.StageMetric

// Compiled is the full result of the mapping flow.
type Compiled = driver.Compiled

// Compile runs the whole flow on a stream graph.
func Compile(g *sdf.Graph, opts Options) (*Compiled, error) {
	return driver.Compile(context.Background(), g, opts)
}

// CompileCtx is Compile under a context: cancellation aborts between
// pipeline stages and inside the partition and map passes.
func CompileCtx(ctx context.Context, g *sdf.Graph, opts Options) (*Compiled, error) {
	return driver.Compile(ctx, g, opts)
}

// Equivalent reports the first artifact difference between two
// compilations of the same graph under the same options (nil when they are
// identical) — the machine-checkable form of the serial/pipeline fidelity
// contract.
func Equivalent(a, b *Compiled) error { return driver.Equivalent(a, b) }
