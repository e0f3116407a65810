package streammap

// One benchmark per table and figure of the paper's evaluation, plus
// ablation and component micro-benchmarks. Each evaluation bench runs the
// corresponding experiment harness end to end and reports the headline
// metric via b.ReportMetric, so `go test -bench` regenerates the paper's
// artifacts:
//
//	BenchmarkFig41_EstimationAccuracy   -> Figure 4.1 (R^2)
//	BenchmarkFig42_Scalability          -> Figure 4.2 (avg final 4-GPU speedup)
//	BenchmarkFig43_SOSPComparison       -> Figure 4.3 (avg 4-GPU SOSP ratio)
//	BenchmarkFig44_SOSPValidity         -> Figure 4.4 (max SOSP deviation)
//	BenchmarkTable51_SplitterElim       -> Table 5.1 (best elimination speedup)
//
// cmd/experiments prints the full tables at full scale.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/experiments"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/partition"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func BenchmarkFig41_EstimationAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.Fig41(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.R2, "R2")
		b.ReportMetric(float64(len(res.Points)), "partitions")
	}
}

func BenchmarkFig42_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig42(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		final := map[string]experiments.Fig42Row{}
		for _, r := range rows {
			if p, ok := final[r.App]; !ok || r.N > p.N {
				final[r.App] = r
			}
		}
		var sum float64
		for _, r := range final {
			sum += r.SpeedupG[4]
		}
		b.ReportMetric(sum/float64(len(final)), "avg4GPUspeedup")
	}
}

func BenchmarkFig43_SOSPComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig43(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.SOSPOur[4] / r.SOSPPrev[4]
		}
		b.ReportMetric(sum/float64(len(rows)), "avgSOSPratio4")
	}
}

func BenchmarkFig44_SOSPValidity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig44(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.Deviation > worst {
				worst = r.Deviation
			}
		}
		b.ReportMetric(worst*100, "maxDeviation%")
	}
}

func BenchmarkTable51_SplitterElim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table51(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		var best float64
		for _, r := range rows {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
		b.ReportMetric(best, "bestSpeedup")
	}
}

func BenchmarkAblation_MappingChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Ablations(experiments.Tiny())
		if err != nil {
			b.Fatal(err)
		}
		var gain float64
		for _, r := range rows {
			gain += r.CommBlind / r.CommAware
		}
		b.ReportMetric(gain/float64(len(rows)), "commAwareGain")
	}
}

func BenchmarkAblation_SharedVsStaticAllocator(b *testing.B) {
	// Design-choice ablation: the optimistic lifetime-sharing allocator vs
	// the static allocation the code generator uses (DESIGN.md S8).
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]sdf.NodeID, g.NumNodes())
	for i := range all {
		all[i] = sdf.NodeID(i)
	}
	sub, err := g.Extract(all)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static, err := smreqAnalyze(sub, false)
		if err != nil {
			b.Fatal(err)
		}
		shared, err := smreqAnalyze(sub, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(static)/float64(shared), "staticOverShared")
	}
}

// --- component micro-benchmarks ---

func BenchmarkBalanceSolverDES32(b *testing.B) {
	app, _ := apps.ByName("DES")
	s, err := app.Build(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sdf.Flatten("des32", s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionerDES16(b *testing.B) {
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := pee.NewEngine(g, pee.ProfileGraph(g, M2090()))
		if _, err := partition.RunCtx(context.Background(), g, eng, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILPMapping12x4(b *testing.B) {
	work := []float64{300, 120, 450, 80, 200, 340, 90, 150, 510, 70, 260, 180}
	var edges []pdgEdge
	for i := 0; i < 11; i++ {
		edges = append(edges, pdgEdge{From: i, To: i + 1, Bytes: int64(100000 * (i%4 + 1))})
	}
	prob := newSynthProblem(work, edges, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.SolveCtx(context.Background(), prob, mapping.Options{ForceILP: true, TimeBudget: 5 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactMap is the mapper — local search, then the exact arm seeded
// with it — on two compiler-produced problems: MatMul2 N=8 on 4 GPUs (10
// partitions; the instance the old LP search spent a second proving) and
// MatMul3 N=7 on 8 GPUs (17 partitions; the exact arm finds and proves a
// mapping local search misses).
func BenchmarkExactMap(b *testing.B) {
	for _, bc := range []struct {
		app     string
		n, gpus int
	}{{"MatMul2", 8, 4}, {"MatMul3", 7, 8}} {
		b.Run(fmt.Sprintf("%s-%dx%d", bc.app, bc.n, bc.gpus), func(b *testing.B) {
			app, _ := apps.ByName(bc.app)
			g, err := apps.BuildGraph(app, bc.n)
			if err != nil {
				b.Fatal(err)
			}
			c, err := driver.Compile(context.Background(), g, driver.Options{Topo: topology.PairedTree(bc.gpus), Mapper: driver.PrevWorkMap})
			if err != nil {
				b.Fatal(err)
			}
			prob := *c.Problem
			prob.ViaHost = false
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := mapping.SolveCtx(context.Background(), &prob, mapping.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(a.Objective, "objective_us")
			}
		})
	}
}

func BenchmarkSimulatorDES16x4GPU(b *testing.B) {
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 16)
	if err != nil {
		b.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{Topo: topology.PairedTree(4)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.RunTiming(c.Plan, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpFFT256(b *testing.B) {
	app, _ := apps.ByName("FFT")
	g, err := apps.BuildGraph(app, 256)
	if err != nil {
		b.Fatal(err)
	}
	it, err := sdf.NewInterp(g)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]Token, 512)
	for i := range in {
		in[i] = Token(i % 37)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Feed(0, in)
		if err := it.RunIterations(1); err != nil {
			b.Fatal(err)
		}
		it.Drain(0)
	}
}
