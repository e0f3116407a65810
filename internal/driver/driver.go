// Package driver runs the paper's mapping flow (Figure 3.1) as an explicit
// pass-pipeline:
//
//	profile -> partition -> pdg -> map -> plan
//
// Each pass is a named, timed, cancellable stage sharing one
// context.Context; per-stage wall-clock metrics are recorded on the result.
// One pass is parallel, in its independent units only: the mapper runs
// local search's seed descents side by side (package mapping) and commits
// serially in a fixed order, so the artifacts are bit-identical at any
// worker count: Workers=1 is the serial reference the differential harness
// compares against (see DESIGN.md S9, S10). The partitioner (package
// partition) runs Algorithm 1 on the calling goroutine against the
// compile's own estimation engine (package pee).
//
// Callers compile through this package directly (Compile); core.Service
// adds the caching compile service on top.
package driver

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/obs"
	"streammap/internal/partition"
	"streammap/internal/pdg"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// PartitionerKind selects the partitioning algorithm.
type PartitionerKind int

// Partitioners.
const (
	// Alg1 is the paper's four-phase heuristic.
	Alg1 PartitionerKind = iota
	// PrevWorkPart merges until the SM requirement is violated ([7]).
	PrevWorkPart
	// SinglePart maps the whole graph as one kernel ([10], the SOSP
	// baseline).
	SinglePart
	// MultilevelPart forces the multilevel coarsen→partition→refine path
	// regardless of graph size. With Alg1, the same path is auto-selected
	// once the graph reaches Options.MultilevelThreshold nodes.
	MultilevelPart
)

// Multilevel threshold sentinels (Options.MultilevelThreshold).
const (
	// DefaultMultilevelThreshold is the node count at which Alg1 compiles
	// switch to the multilevel path (exact Try-Merge takes ~7.5s at 4096
	// nodes on one core and grows quadratically beyond).
	DefaultMultilevelThreshold = 4096
	// MultilevelOff disables the size-based switch; Alg1 stays exact at any
	// size.
	MultilevelOff = -1
)

// MapperKind selects the partition-to-GPU mapper.
type MapperKind int

// Mappers.
const (
	// ILPMapper is the communication-aware ILP of §3.2.2 (with local-search
	// seeding/fallback).
	ILPMapper MapperKind = iota
	// PrevWorkMap is workload-only balancing with host-staged transfers.
	PrevWorkMap
)

// Options configures a compilation.
type Options struct {
	Device        gpu.Device
	Topo          *topology.Tree
	FragmentIters int // B: parent iterations per fragment (default 512)
	Partitioner   PartitionerKind
	Mapper        MapperKind
	MapOptions    mapping.Options

	// MultilevelThreshold is the node count at which an Alg1 compile is
	// served by the multilevel path instead of exact Try-Merge. 0 selects
	// DefaultMultilevelThreshold; MultilevelOff (-1) pins Alg1 exact at any
	// size. Below the threshold the exact path is unchanged. The switch is
	// part of the compilation's identity: it is normalized into cache keys
	// and artifact options.
	MultilevelThreshold int

	// Workers bounds the worker pool of the mapper's seed descents, the
	// one parallel pass. 0 selects GOMAXPROCS; 1 runs every pass serially.
	// The result is identical either way — workers only change wall-clock
	// time.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Device.Name == "" {
		o.Device = gpu.M2090()
	}
	if o.Topo == nil {
		o.Topo = topology.PairedTree(1)
	}
	if o.FragmentIters == 0 {
		o.FragmentIters = 512
	}
	if o.MultilevelThreshold == 0 {
		o.MultilevelThreshold = DefaultMultilevelThreshold
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Normalized returns opts with every default filled in. core.Service keys
// its result cache on normalized options, so equivalent requests (zero
// value vs explicit default) share one cache entry.
func Normalized(opts Options) Options { return opts.withDefaults() }

// Validate reports nonsensical options with a descriptive error instead of
// letting them fail deep inside a pipeline pass. Zero values are fine —
// they select defaults — but negatives, unknown kinds, invalid devices and
// malformed topologies are rejected here. Every withDefaults call site
// (Compile, the compile service) validates first.
func (o Options) Validate() error {
	if o.FragmentIters < 0 {
		return fmt.Errorf("driver: FragmentIters %d is negative; it is B, the parent iterations per fragment (0 selects the default 512)", o.FragmentIters)
	}
	if o.Workers < 0 {
		return fmt.Errorf("driver: Workers %d is negative (0 selects GOMAXPROCS, 1 runs serially)", o.Workers)
	}
	switch o.Partitioner {
	case Alg1, PrevWorkPart, SinglePart, MultilevelPart:
	default:
		return fmt.Errorf("driver: unknown partitioner kind %d (want Alg1, PrevWorkPart, SinglePart or MultilevelPart)", o.Partitioner)
	}
	if o.MultilevelThreshold < MultilevelOff {
		return fmt.Errorf("driver: MultilevelThreshold %d is invalid (0 selects the default %d, MultilevelOff=-1 disables the switch)",
			o.MultilevelThreshold, DefaultMultilevelThreshold)
	}
	switch o.Mapper {
	case ILPMapper, PrevWorkMap:
	default:
		return fmt.Errorf("driver: unknown mapper kind %d (want ILPMapper or PrevWorkMap)", o.Mapper)
	}
	if o.MapOptions.ILPMaxParts < 0 {
		return fmt.Errorf("driver: MapOptions.ILPMaxParts %d is negative (0 selects the default 24)", o.MapOptions.ILPMaxParts)
	}
	if o.MapOptions.TimeBudget < 0 {
		return fmt.Errorf("driver: MapOptions.TimeBudget %v is negative (0 selects the default 10s)", o.MapOptions.TimeBudget)
	}
	if o.MapOptions.Workers < 0 {
		return fmt.Errorf("driver: MapOptions.Workers %d is negative", o.MapOptions.Workers)
	}
	if o.Device.Name != "" {
		if err := o.Device.Validate(); err != nil {
			return err
		}
	}
	if o.Topo != nil {
		if err := o.Topo.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// StageMetric records one pass's wall-clock cost. What a pass did, as
// opposed to how long it took, is noted on its stage.* span.
type StageMetric struct {
	Name     string
	Duration time.Duration
}

// Compiled is the full result of the mapping flow.
type Compiled struct {
	Graph   *sdf.Graph
	Options Options
	Prof    *pee.Profile
	Parts   *partition.Result
	PDG     *pdg.PDG
	Problem *mapping.Problem
	Assign  *mapping.Assignment
	Plan    *gpusim.Plan

	// Stages holds the per-pass timings of this compilation, in pass order.
	Stages []StageMetric

	// Estimates is the estimation engine's counters at the end of the
	// partition pass. The engine itself, and its memo, die with the pass.
	Estimates pee.Stats

	// RemapInfo is non-nil when this result came from Remap rather than a
	// cold compilation; Artifact() stamps it into the wire form.
	RemapInfo *artifact.RemapInfo
}

// StageDuration returns the recorded wall-clock of the named pass (zero if
// the pass did not run).
func (c *Compiled) StageDuration(name string) time.Duration {
	for _, s := range c.Stages {
		if s.Name == name {
			return s.Duration
		}
	}
	return 0
}

// stage is one named pass over the accumulating compilation state.
type stage struct {
	name string
	run  func(ctx context.Context, c *Compiled) error
}

// pipeline is the pass order of the flow.
func pipeline() []stage {
	return []stage{
		{"profile", stageProfile},
		{"partition", stagePartition},
		{"pdg", stagePDG},
		{"map", stageMap},
		{"plan", stagePlan},
	}
}

// Compile runs the whole flow on a stream graph through the pass-pipeline.
// The context cancels the run between stages and inside the partition and
// map passes.
func Compile(ctx context.Context, g *sdf.Graph, opts Options) (*Compiled, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := opts.Device.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Topo.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Graph: g, Options: opts}
	for _, s := range pipeline() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("driver: cancelled before %s pass: %w", s.name, err)
		}
		start := time.Now()
		sctx, span := obs.StartSpan(ctx, "stage."+s.name)
		err := s.run(sctx, c)
		span.End()
		if err != nil {
			return nil, err
		}
		c.Stages = append(c.Stages, StageMetric{Name: s.name, Duration: time.Since(start)})
	}
	return c, nil
}

// stageProfile annotates every filter with its profiled single-thread cost.
func stageProfile(_ context.Context, c *Compiled) error {
	c.Prof = pee.ProfileGraph(c.Graph, c.Options.Device)
	return nil
}

// multilevelSelected reports whether the multilevel path serves this
// compile: forced by MultilevelPart, or an Alg1 request on a graph at or
// above the size threshold.
func multilevelSelected(opts Options, g *sdf.Graph) bool {
	switch opts.Partitioner {
	case MultilevelPart:
		return true
	case Alg1:
		return opts.MultilevelThreshold > 0 && g.NumNodes() >= opts.MultilevelThreshold
	}
	return false
}

// stagePartition runs the selected partitioner on the calling goroutine,
// with an estimation engine that lives for this pass only: the compile keeps
// the engine's counters, not its memo. The stage's span notes how hard the
// engine worked and, when the multilevel path served the compile, its
// hierarchy and refinement counters.
func stagePartition(ctx context.Context, c *Compiled) error {
	eng := pee.NewEngine(c.Graph, c.Prof)
	var err error
	switch {
	case multilevelSelected(c.Options, c.Graph):
		c.Parts, err = partition.Multilevel(ctx, c.Graph, eng, partition.MLOptions{})
	case c.Options.Partitioner == Alg1:
		c.Parts, err = partition.RunCtx(ctx, c.Graph, eng, 1)
	case c.Options.Partitioner == PrevWorkPart:
		c.Parts, err = partition.PrevWork(c.Graph, eng, c.Options.Device)
	case c.Options.Partitioner == SinglePart:
		c.Parts, err = partition.SinglePartition(c.Graph, eng)
	default:
		err = fmt.Errorf("driver: unknown partitioner %d", c.Options.Partitioner)
	}
	c.Estimates = eng.Stats()
	if err == nil && c.Parts.ML != nil {
		obs.SpanFrom(ctx).Notef("multilevel %v; %v", c.Parts.ML, c.Estimates)
	} else {
		obs.SpanFrom(ctx).Notef("%v", c.Estimates)
	}
	return err
}

// stagePDG builds the partition dependence graph.
func stagePDG(_ context.Context, c *Compiled) error {
	var err error
	c.PDG, err = pdg.Build(c.Graph, c.Parts.Parts)
	return err
}

// stageMap solves the partition-to-GPU assignment; the communication-aware
// mapper runs local search, then the exact arm under its budget.
func stageMap(ctx context.Context, c *Compiled) error {
	c.Problem = mappingProblem(c.Options, c.PDG, c.Parts.Parts)
	var err error
	c.Assign, err = solveMapping(ctx, c.Options, c.Problem)
	return err
}

// mappingProblem assembles the mapping instance of a partitioning: the one
// place a compile, a remap, a re-merge candidate and a rehydrated artifact
// build theirs.
func mappingProblem(opts Options, dg *pdg.PDG, parts []*partition.Partition) *mapping.Problem {
	return &mapping.Problem{
		PDG:           dg,
		Topo:          opts.Topo,
		FragmentIters: opts.FragmentIters,
		NumSMs:        opts.Device.NumSMs,
		LaunchUS:      opts.Device.KernelLaunchUS,
		ViaHost:       opts.Mapper == PrevWorkMap,
		TimesUS:       fragmentTimes(parts, opts),
	}
}

// solveMapping dispatches the selected mapper on a problem. The pipeline's
// worker bound reaches the mapper's portfolio here and nowhere else.
func solveMapping(ctx context.Context, opts Options, p *mapping.Problem) (*mapping.Assignment, error) {
	switch opts.Mapper {
	case ILPMapper:
		mo := opts.MapOptions
		if mo.Workers == 0 {
			mo.Workers = opts.Workers
		}
		return mapping.SolveCtx(ctx, p, mo)
	case PrevWorkMap:
		return mapping.PrevWork(p), nil
	}
	return nil, fmt.Errorf("driver: unknown mapper %d", opts.Mapper)
}

// stagePlan lowers the compilation to the simulator's self-contained
// executable plan: plain kernel descriptions plus the dependence data, with
// no reference back into the partitioner's or the estimation engine's
// structures.
func stagePlan(_ context.Context, c *Compiled) error {
	c.Plan = buildPlan(c.Graph, c.Options, c.Prof, c.Parts.Parts, c.PDG, c.Assign.GPUOf)
	return nil
}

// buildPlan is the one place compiler structures are lowered to an
// executable gpusim.Plan; Compile, Remap and FromArtifact share it.
func buildPlan(g *sdf.Graph, opts Options, prof *pee.Profile, parts []*partition.Partition, dg *pdg.PDG, gpuOf []int) *gpusim.Plan {
	kernels := make([]*gpusim.Kernel, len(parts))
	for i, p := range parts {
		kernels[i] = &gpusim.Kernel{
			Members:      p.Members,
			Scale:        p.Scale,
			Params:       gpusim.KernelParams{S: p.Est.Params.S, W: p.Est.Params.W, F: p.Est.Params.F},
			SMBytes:      p.Est.SMBytes,
			IOBytes:      p.Est.DBytes,
			TUS:          p.Est.TUS,
			ComputeBound: p.Est.ComputeBound(),
		}
	}
	deps := make([]gpusim.Dep, len(dg.Edges))
	for i, e := range dg.Edges {
		deps[i] = gpusim.Dep{From: e.From, To: e.To, Bytes: e.Bytes}
	}
	return &gpusim.Plan{
		Graph:           g,
		Machine:         gpusim.Machine{Device: opts.Device, Topo: opts.Topo},
		PerFiringCycles: prof.PerFiringCycles,
		Kernels:         kernels,
		Deps:            deps,
		HostInBytes:     dg.HostInBytes,
		HostOutBytes:    dg.HostOutBytes,
		Order:           dg.Topo,
		GPUOf:           gpuOf,
		FragmentIters:   opts.FragmentIters,
		ViaHost:         opts.Mapper == PrevWorkMap,
	}
}

// fragmentTimes derives each partition's per-fragment busy-time estimate
// with the same wave-quantized law the execution engine charges: blocks of W
// executions spread over the SMs, each wave costing the estimated Texec.
// Feeding the mapper the law the hardware follows is the "minimal static
// discrepancy" principle of §3.3 applied to the mapping step.
func fragmentTimes(parts []*partition.Partition, opts Options) []float64 {
	out := make([]float64, len(parts))
	for i, p := range parts {
		execs := int64(opts.FragmentIters) * p.Scale
		w := int64(p.Est.Params.W)
		blocks := (execs + w - 1) / w
		waves := (blocks + int64(opts.Device.NumSMs) - 1) / int64(opts.Device.NumSMs)
		out[i] = opts.Device.KernelLaunchUS + float64(waves)*p.Est.TexecUS
	}
	return out
}

// Execute runs the compiled plan on the simulator, moving real tokens
// through the filters. The inputs slice is validated against the graph's
// primary input ports up front, so a malformed call fails with a
// descriptive error instead of deep inside the simulation.
func (c *Compiled) Execute(inputs [][]sdf.Token, fragments int) (*gpusim.Result, error) {
	return c.ExecuteCtx(context.Background(), inputs, fragments)
}

// ExecuteCtx is Execute under a context: cancellation aborts between
// fragments of the functional pass and inside the timing event loop.
func (c *Compiled) ExecuteCtx(ctx context.Context, inputs [][]sdf.Token, fragments int) (*gpusim.Result, error) {
	if err := c.validateInputs(inputs, fragments); err != nil {
		return nil, err
	}
	return gpusim.RunCtx(ctx, c.Plan, inputs, fragments)
}

// validateInputs checks the input streams against the graph's source ports
// and the requested fragment count before any simulation state is built.
func (c *Compiled) validateInputs(inputs [][]sdf.Token, fragments int) error {
	if fragments <= 0 {
		return fmt.Errorf("driver: Execute: fragments must be positive, got %d", fragments)
	}
	ports := c.Graph.InputPorts()
	if len(inputs) != len(ports) {
		return fmt.Errorf("driver: Execute: %d input streams supplied, but graph %s has %d primary input port(s)",
			len(inputs), c.Graph.Name, len(ports))
	}
	for i := range ports {
		need := c.InputNeed(i, fragments)
		if int64(len(inputs[i])) < need {
			return fmt.Errorf("driver: Execute: input %d has %d tokens, need %d (%d per iteration x B=%d x %d fragments)",
				i, len(inputs[i]), need, c.Graph.PortTokens(ports[i], true), c.Options.FragmentIters, fragments)
		}
	}
	return nil
}

// InputNeed returns the number of tokens required on primary input port idx
// for the given fragment count.
func (c *Compiled) InputNeed(idx, fragments int) int64 {
	ports := c.Graph.InputPorts()
	return c.Graph.PortTokens(ports[idx], true) * int64(c.Options.FragmentIters) * int64(fragments)
}
