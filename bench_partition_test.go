package streammap

// Try-Merge scoring microbenchmarks: the partitioner's hot path is scoring
// candidate unions against the estimation engine. EstimateSet_Cold measures
// a miss (view construction + SM analysis + parameter sweep), Warm the
// memoized hit path (hash + memo lookup), and TryMergeScore the repeated
// phase-3 scan step (convexity check + warm estimate + workload compare).
// bench_compile_baseline.json records reference numbers; the hit path and
// the convexity check are expected to stay allocation-free.

import (
	"context"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/gpu"
	"streammap/internal/partition"
	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// benchScoringFixture builds the DES N=32 estimation fixture and returns the
// engine plus a representative already-partitioned set (the largest final
// partition: feasible, convex and connected by construction).
func benchScoringFixture(b *testing.B) (*sdf.Graph, *pee.Engine, sdf.NodeSet) {
	b.Helper()
	app, ok := apps.ByName("DES")
	if !ok {
		b.Fatal("DES not registered")
	}
	g, err := apps.BuildGraph(app, 32)
	if err != nil {
		b.Fatal(err)
	}
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	res, err := partition.RunCtx(context.Background(), g, eng, 1)
	if err != nil {
		b.Fatal(err)
	}
	best := res.Parts[0]
	for _, p := range res.Parts {
		if len(p.Members) > len(best.Members) {
			best = p
		}
	}
	set := sdf.NewNodeSet(g.NumNodes())
	for _, m := range best.Members {
		set.Add(m)
	}
	return g, eng, set
}

func BenchmarkEstimateSet_Cold(b *testing.B) {
	g, eng, set := benchScoringFixture(b)
	prof := eng.Prof
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := pee.NewEngine(g, prof)
		if _, err := fresh.EstimateSet(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateSet_Warm shares one engine across iterations on purpose:
// every iteration after the first is a memo hit, the path it measures.
func BenchmarkEstimateSet_Warm(b *testing.B) {
	_, eng, set := benchScoringFixture(b)
	if _, err := eng.EstimateSet(set); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EstimateSet(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTryMergeScore(b *testing.B) {
	g, eng, set := benchScoringFixture(b)
	est, err := eng.EstimateSet(set)
	if err != nil {
		b.Fatal(err)
	}
	combined := est.TUS * 2 // stand-in for the constituents' summed workload
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.IsConvex(set) {
			b.Fatal("fixture set not convex")
		}
		e, err := eng.EstimateSet(set)
		if err != nil {
			b.Fatal(err)
		}
		_ = e.TUS < combined
	}
}
