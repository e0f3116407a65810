package driver

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/mapping"
	"streammap/internal/partition"
	"streammap/internal/pdg"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// Kind names are the stable wire spelling of the enum kinds; the integer
// constants never enter an artifact, so reordering them cannot silently
// change the format.

// String returns the partitioner's stable wire name.
func (k PartitionerKind) String() string {
	switch k {
	case Alg1:
		return "alg1"
	case PrevWorkPart:
		return "prev"
	case SinglePart:
		return "single"
	case MultilevelPart:
		return "multilevel"
	}
	return fmt.Sprintf("PartitionerKind(%d)", int(k))
}

// ParsePartitionerKind inverts PartitionerKind.String.
func ParsePartitionerKind(s string) (PartitionerKind, error) {
	switch s {
	case "alg1":
		return Alg1, nil
	case "prev":
		return PrevWorkPart, nil
	case "single":
		return SinglePart, nil
	case "multilevel":
		return MultilevelPart, nil
	}
	return 0, fmt.Errorf("driver: unknown partitioner %q (want alg1, prev, single or multilevel)", s)
}

// String returns the mapper's stable wire name.
func (k MapperKind) String() string {
	switch k {
	case ILPMapper:
		return "ilp"
	case PrevWorkMap:
		return "prev"
	}
	return fmt.Sprintf("MapperKind(%d)", int(k))
}

// ParseMapperKind inverts MapperKind.String.
func ParseMapperKind(s string) (MapperKind, error) {
	switch s {
	case "ilp":
		return ILPMapper, nil
	case "prev":
		return PrevWorkMap, nil
	}
	return 0, fmt.Errorf("driver: unknown mapper %q (want ilp or prev)", s)
}

// ExportOptions returns the normalized wire form of compile options — the
// identity an artifact claims to have been compiled under. Artifact export
// writes it; FromArtifact (and through it the disk cache) cross-checks it
// against the request being served.
func ExportOptions(opts Options) artifact.Options {
	opts = opts.withDefaults()
	mo := opts.MapOptions.Normalized()
	return artifact.Options{
		Device:        opts.Device,
		Topo:          opts.Topo.Export(),
		FragmentIters: opts.FragmentIters,
		Partitioner:   opts.Partitioner.String(),
		Mapper:        opts.Mapper.String(),
		ILPMaxParts:   mo.ILPMaxParts,
		ILPBudgetNS:   mo.TimeBudget.Nanoseconds(),
		ForceILP:      mo.ForceILP,

		MultilevelThreshold: opts.MultilevelThreshold,
	}
}

// ImportOptions inverts ExportOptions: it rebuilds compile options from
// their wire form, re-deriving the topology tree and parsing the kind
// names. The result is normalized — ExportOptions(ImportOptions(w)) == w
// for any w that ExportOptions produced. Workers is not on the wire (it
// never changes the result); the zero value selects GOMAXPROCS, and
// callers that want a different pool bound set it afterwards.
func ImportOptions(w artifact.Options) (Options, error) {
	if err := w.Device.Validate(); err != nil {
		return Options{}, err
	}
	topo, err := topology.Import(w.Topo)
	if err != nil {
		return Options{}, err
	}
	part, err := ParsePartitionerKind(w.Partitioner)
	if err != nil {
		return Options{}, err
	}
	mapper, err := ParseMapperKind(w.Mapper)
	if err != nil {
		return Options{}, err
	}
	opts := Options{
		Device:        w.Device,
		Topo:          topo,
		FragmentIters: w.FragmentIters,
		Partitioner:   part,
		Mapper:        mapper,
		MapOptions: mapping.Options{
			ILPMaxParts: w.ILPMaxParts,
			TimeBudget:  time.Duration(w.ILPBudgetNS),
			ForceILP:    w.ForceILP,
		},
		MultilevelThreshold: w.MultilevelThreshold,
	}
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return Options{}, err
	}
	return opts, nil
}

// Artifact exports the compilation as a versioned, self-contained,
// serializable artifact: the graph's structural description, the normalized
// options, the profile, the partitions with their kernel parameters and the
// assignment with its objective, in wire form, with no reference into
// compiler internals. Nothing the decoder derives from the rest is exported
// — no SM layout, no scale, no PDG, no plan, no per-link loads — and nothing
// of the run either (c.Stages, the worker count): two compilations of one
// key export the same artifact. The artifact round-trips through
// Encode/Decode, and FromArtifact (or Rehydrate) turns it back into a
// Compiled without recompiling. The error is always nil.
func (c *Compiled) Artifact() (*artifact.Artifact, error) {
	a := &artifact.Artifact{
		Format:      artifact.FormatVersion,
		Fingerprint: c.Graph.Fingerprint(),
		Graph:       sdf.ExportGraph(c.Graph),
		Options:     ExportOptions(c.Options),
		Profile:     c.Prof.Export(),
		Partitions:  partition.ExportResult(c.Parts),
		Assignment:  c.Assign.Export(),
	}
	if c.RemapInfo != nil {
		info := *c.RemapInfo
		a.Remap = &info
	}
	return a, nil
}

// FromArtifact rebuilds a Compiled from a decoded artifact against the
// caller's graph — the one carrying real work functions — without running
// any pipeline stage: partitions are rebuilt from their member lists (not
// re-partitioned, and not extracted) with their estimates restored
// verbatim, the PDG is built over them by pdg.Build as in a compile — its
// owner array is the exact-cover check and its acyclic quotient the
// convexity check — each partition is checked connected, the assignment is
// re-evaluated from its placement, and the plan is lowered by buildPlan. Two
// numbers the artifact claims are held to what the decoder derives: each
// partition's SM bytes to smreq.PeakBytesView over its members
// (partition.ImportResult), and the objective, bit for bit, to the
// evaluation of the placement — every mapper's result is such an evaluation
// on the same problem. Stages is empty on the result, which is the
// provenance signal that nothing was recompiled.
//
// The graph must fingerprint to the artifact's compiled graph; opts are the
// caller's options for the request being served (they must describe the
// same compilation — the two-tier cache guarantees this by keying on them).
func FromArtifact(g *sdf.Graph, a *artifact.Artifact, opts Options) (*Compiled, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if fp := g.Fingerprint(); fp != a.Fingerprint {
		return nil, fmt.Errorf("driver: graph fingerprints to %016x, artifact was compiled from %016x", fp, a.Fingerprint)
	}
	opts = opts.withDefaults()
	// The artifact must have been compiled under the options now being
	// served: a misplaced or renamed cache entry for the same graph but a
	// different fragment size, mapper or topology is rejected here, not
	// silently returned as the wrong compilation.
	if want, got := ExportOptions(opts), a.Options; !reflect.DeepEqual(want, got) {
		return nil, fmt.Errorf("driver: artifact was compiled under different options (%+v) than requested (%+v)", got, want)
	}
	if !g.HasSteady() {
		if err := g.Steady(); err != nil {
			return nil, err
		}
	}
	prof, err := pee.ImportProfile(opts.Device, a.Profile, g.NumNodes())
	if err != nil {
		return nil, err
	}
	parts, err := partition.ImportResult(g, a.Partitions)
	if err != nil {
		return nil, err
	}
	dg, err := pdg.Build(g, parts.Parts)
	if err != nil {
		return nil, err
	}
	if err := partition.CheckConnected(g, parts.Parts); err != nil {
		return nil, err
	}
	problem := mappingProblem(opts, dg, parts.Parts)
	assign := mapping.Evaluate(problem, a.Assignment.GPUOf, a.Assignment.Method)
	if math.Float64bits(assign.Objective) != math.Float64bits(a.Assignment.Objective) {
		return nil, fmt.Errorf("driver: artifact claims objective %v, its assignment evaluates to %v", a.Assignment.Objective, assign.Objective)
	}
	c := &Compiled{
		Graph:   g,
		Options: opts,
		Prof:    prof,
		Parts:   parts,
		PDG:     dg,
		Problem: problem,
		Assign:  assign,
	}
	c.Plan = buildPlan(g, opts, prof, parts.Parts, dg, assign.GPUOf)
	if a.Remap != nil {
		info := *a.Remap
		c.RemapInfo = &info
	}
	return c, nil
}

// Rehydrate is FromArtifact over a structural twin of the compiled graph,
// rebuilt from the artifact's embedded spec, under the artifact's own
// options: everything but functional execution (which needs the real work
// functions, see FromArtifact) works on the result — timing simulation,
// re-export, Remap.
func Rehydrate(a *artifact.Artifact) (*Compiled, error) {
	g, err := sdf.ImportGraph(a.Graph)
	if err != nil {
		return nil, err
	}
	opts, err := ImportOptions(a.Options)
	if err != nil {
		return nil, err
	}
	return FromArtifact(g, a, opts)
}

// EquivalentArtifacts is artifact.Equal under the name bench/ (frozen by
// BENCHMARK.json) calls it by.
func EquivalentArtifacts(a, b *artifact.Artifact) error {
	return artifact.Equal(a, b)
}
