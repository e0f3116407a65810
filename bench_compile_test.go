package streammap

// Compile-path guardrail: BenchmarkCompile_Serial measures the pass-pipeline
// at Workers 1 (the serial reference), BenchmarkCompile_Pipeline the same
// pipeline at GOMAXPROCS workers, on the largest internal/apps workload (DES N=32: ~224
// partitions, the heaviest partition+map passes of the suite). Their ratio
// is what the mapper's side-by-side seed descents buy;
// bench_compile_baseline.json records a reference run so future PRs can
// track regressions.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"streammap/internal/apps"
	"streammap/internal/core"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// benchCompileWorkload builds one app-suite compile instance.
func benchCompileWorkload(b *testing.B, name string, n int) *sdf.Graph {
	b.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		b.Fatalf("%s not registered", name)
	}
	g, err := apps.BuildGraph(app, n)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchCompileOptions(workers int) core.Options {
	return core.Options{
		Topo:       topology.PairedTree(4),
		MapOptions: mapping.Options{TimeBudget: 2 * time.Second},
		Workers:    workers,
	}
}

func BenchmarkCompile_Serial(b *testing.B) {
	g := benchCompileWorkload(b, "DES", 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.CompileCtx(context.Background(), g, benchCompileOptions(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(c.Parts.Parts)), "partitions")
	}
}

func BenchmarkCompile_Pipeline(b *testing.B) {
	benchCompilePipeline(b, benchCompileWorkload(b, "DES", 32))
}

// BenchmarkCompile_PipelineBitonicRec64 is the pipeline on the suite's
// heaviest exact Try-Merge instance: few pipeline chains, so phases 2-4's
// serial scan is nearly the whole partition pass. DES N=32 spends its time
// in phase 1 and the mapper and cannot see a change to that scan.
func BenchmarkCompile_PipelineBitonicRec64(b *testing.B) {
	benchCompilePipeline(b, benchCompileWorkload(b, "BitonicRec", 64))
}

func benchCompilePipeline(b *testing.B, g *sdf.Graph) {
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.CompileCtx(context.Background(), g, benchCompileOptions(workers))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(c.Parts.Parts)), "partitions")
		b.ReportMetric(float64(workers), "workers")
	}
}

// BenchmarkCompile_ServiceCached measures the served path: after the first
// miss every request is a cache hit, which is the steady state of a
// compile-serving deployment. The options are built once, outside the
// loop: constructing a topology costs ~200 allocations, none of them the
// service's.
func BenchmarkCompile_ServiceCached(b *testing.B) {
	g := benchCompileWorkload(b, "DES", 32)
	svc := NewService(ServiceConfig{})
	opts := benchCompileOptions(0)
	if _, err := svc.Compile(context.Background(), g, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Compile(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
