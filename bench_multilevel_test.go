package streammap

// Multilevel-path guardrails: BenchmarkCoarsen measures the structural
// contraction pass alone on a 10^5-node synthetic graph, and
// BenchmarkMultilevelCompile the full coarsen->partition->refine compile
// (including PDG, mapping and plan) at 10^4 filters — the regime where the
// exact Try-Merge flow has already left interactive latency.
// BenchmarkDeltaDescent is the mapper's inner loop alone: one budgeted
// delta descent over that compile's 1406-partition PDG from a cold seed
// (BenchmarkDeltaDescentBlock: from the seed that wins there);
// BenchmarkGreedy is the placement that seeds local search on the same PDG,
// and BenchmarkExtractPartition the materialization of one of those
// partitions.
// (The partitioner's inner loop, the kernel-parameter sweep, has its
// BenchmarkSweep in internal/pee.) bench_compile_baseline.json records a
// reference run.

import (
	"context"
	"sort"
	"testing"

	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/mapping"
	"streammap/internal/partition"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/synth"
)

func benchSynthGraph(b *testing.B, filters int) *sdf.Graph {
	b.Helper()
	g, err := synth.BuildGraph(synth.GraphParams{
		Seed: uint64(filters)<<16 | 4, Filters: filters,
		MaxRate: 8, MaxOps: 512, SkewWork: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := g.Steady(); err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkCoarsen(b *testing.B) {
	g := benchSynthGraph(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := partition.BuildCoarsening(g, partition.CoarsenOptions{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(c.Levels)), "levels")
		b.ReportMetric(float64(c.Coarsest().NumUnits), "units")
	}
}

// BenchmarkMultilevelPartition profiles the graph and builds a fresh engine
// in every iteration, as driver.Compile does: a shared engine would carry
// its state from one iteration into the next.
func BenchmarkMultilevelPartition(b *testing.B) {
	g := benchSynthGraph(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
		res, err := partition.Multilevel(context.Background(), g, eng, partition.MLOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Parts)), "partitions")
	}
}

// BenchmarkExtractPartition materializes one mid-sized partition of the
// 10^4-filter graph — what code generation and the simulator's functional
// pass do once per kernel — so the cost must follow the partition, not the
// parent.
func BenchmarkExtractPartition(b *testing.B) {
	g := benchSynthGraph(b, 10000)
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	res, err := partition.Multilevel(context.Background(), g, eng, partition.MLOptions{})
	if err != nil {
		b.Fatal(err)
	}
	parts := res.Parts
	sort.SliceStable(parts, func(i, j int) bool { return len(parts[i].Members) < len(parts[j].Members) })
	members := parts[len(parts)/2].Members
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := g.Extract(members)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sub.Sub.NumNodes()), "nodes")
	}
}

func BenchmarkMultilevelCompile(b *testing.B) {
	g := benchSynthGraph(b, 10000)
	opts := benchCompileOptions(0)
	opts.Partitioner = driver.MultilevelPart
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := driver.Compile(context.Background(), g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(c.Parts.Parts)), "partitions")
	}
}

// benchMappingProblem is the mapping problem of the 10^4-filter multilevel
// compile: 1406 partitions on PairedTree(4).
func benchMappingProblem(b *testing.B) *mapping.Problem {
	b.Helper()
	g := benchSynthGraph(b, 10000)
	opts := benchCompileOptions(0)
	opts.Partitioner = driver.MultilevelPart
	c, err := driver.Compile(context.Background(), g, opts)
	if err != nil {
		b.Fatal(err)
	}
	return c.Problem
}

func BenchmarkGreedy(b *testing.B) {
	p := benchMappingProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mapping.Greedy(p)
		b.ReportMetric(a.Objective, "objective_us")
	}
}

func BenchmarkDeltaDescent(b *testing.B) {
	p := benchMappingProblem(b)
	// Local search's round-robin seed: the topological order dealt over
	// the GPUs.
	seed := make([]int, p.PDG.NumParts())
	for pos, pi := range p.PDG.Topo {
		seed[pi] = pos % p.Topo.NumGPUs()
	}
	benchDescent(b, p, seed)
}

// BenchmarkDeltaDescentBlock descends from local search's block seed, the
// topological order cut into contiguous blocks: the seed that wins on this
// problem, and the one whose candidates the per-GPU time bound rejects most
// often (79 %, against 52 % from round-robin).
func BenchmarkDeltaDescentBlock(b *testing.B) {
	p := benchMappingProblem(b)
	n, g := p.PDG.NumParts(), p.Topo.NumGPUs()
	seed := make([]int, n)
	for pos, pi := range p.PDG.Topo {
		seed[pi] = pos * g / n
	}
	benchDescent(b, p, seed)
}

func benchDescent(b *testing.B, p *mapping.Problem, seed []int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mapping.Refine(context.Background(), p, seed)
		b.ReportMetric(a.Objective, "objective_us")
	}
}
