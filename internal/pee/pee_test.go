package pee

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"streammap/internal/gpu"
	"streammap/internal/sdf"
)

func work(name string, n int, ops int64) *sdf.Filter {
	return sdf.NewFilter(name, n, n, 0, ops, func(w *sdf.Work) {
		copy(w.Out[0], w.In[0][:n])
	})
}

func wholeSub(t *testing.T, g *sdf.Graph) *sdf.Subgraph {
	t.Helper()
	all := make([]sdf.NodeID, g.NumNodes())
	for i := range all {
		all[i] = sdf.NodeID(i)
	}
	sub, err := g.Extract(all)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestEstimateModelEquations(t *testing.T) {
	g, err := sdf.Flatten("p", sdf.Pipe("p", sdf.F(work("a", 4, 100)), sdf.F(work("b", 4, 200))))
	if err != nil {
		t.Fatal(err)
	}
	d := gpu.M2090()
	prof := ProfileGraph(g, d)
	sub := wholeSub(t, g)
	est, err := EstimateSubgraph(sub, prof)
	if err != nil {
		t.Fatal(err)
	}
	p := est.Params

	// Recompute the model by hand for the chosen parameters.
	var tcomp float64
	for _, n := range sub.Sub.Nodes {
		f := float64(sub.Sub.Rep(n.ID))
		par := math.Min(f, float64(p.S))
		tcomp += f * prof.PerFiringCycles[sub.NodeOf[n.ID]] / par
	}
	D := float64(est.DBytes) * float64(p.W)
	tdt := prof.C1 * D / float64(p.F)
	tdb := prof.C2 * D / float64(p.F+p.W*p.S)
	texec := math.Max(tcomp, tdt) + tdb

	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9*(1+math.Abs(b)) }
	if !approx(est.TcompUS, d.CyclesToUS(tcomp)) {
		t.Errorf("Tcomp = %v, want %v", est.TcompUS, d.CyclesToUS(tcomp))
	}
	if !approx(est.TdtUS, d.CyclesToUS(tdt)) {
		t.Errorf("Tdt = %v, want %v", est.TdtUS, d.CyclesToUS(tdt))
	}
	if !approx(est.TexecUS, d.CyclesToUS(texec)) {
		t.Errorf("Texec = %v, want %v", est.TexecUS, d.CyclesToUS(texec))
	}
	if !approx(est.TUS, est.TexecUS/float64(p.W)) {
		t.Errorf("T = %v, want Texec/W = %v", est.TUS, est.TexecUS/float64(p.W))
	}
}

func TestParamsRespectDeviceCaps(t *testing.T) {
	g, _ := sdf.Flatten("p", sdf.Pipe("p",
		sdf.F(work("a", 8, 50)), sdf.F(work("b", 8, 50)), sdf.F(work("c", 8, 50))))
	d := gpu.M2090()
	prof := ProfileGraph(g, d)
	est, err := EstimateSubgraph(wholeSub(t, g), prof)
	if err != nil {
		t.Fatal(err)
	}
	p := est.Params
	if p.W*p.S+p.F > d.MaxThreadsPerBlock {
		t.Errorf("threads %d exceed cap %d", p.W*p.S+p.F, d.MaxThreadsPerBlock)
	}
	if int64(p.W)*est.SMBytes > d.SharedMemPerSM {
		t.Errorf("SM usage %d exceeds %d", int64(p.W)*est.SMBytes, d.SharedMemPerSM)
	}
	if p.F%d.WarpSize != 0 {
		t.Errorf("F = %d not a warp multiple", p.F)
	}
}

func TestComputeVsIOBound(t *testing.T) {
	d := gpu.M2090()
	// Heavy arithmetic, tiny IO: compute bound.
	gc, _ := sdf.Flatten("c", sdf.Pipe("p", sdf.F(work("hot", 1, 100000))))
	ec, err := EstimateSubgraph(wholeSub(t, gc), ProfileGraph(gc, d))
	if err != nil {
		t.Fatal(err)
	}
	if !ec.ComputeBound() {
		t.Errorf("100k-op filter should be compute bound (Tcomp %v vs Tdt %v)", ec.TcompUS, ec.TdtUS)
	}
	// Tiny data movement kernel: the SM footprint is minute, so W rides up
	// to the thread cap and global-memory transfer dominates: IO bound.
	gi, _ := sdf.Flatten("i", sdf.Pipe("p", sdf.F(work("mv", 8, 1))))
	ei, err := EstimateSubgraph(wholeSub(t, gi), ProfileGraph(gi, d))
	if err != nil {
		t.Fatal(err)
	}
	if ei.ComputeBound() {
		t.Errorf("copy filter should be IO bound (Tcomp %v vs Tdt %v)", ei.TcompUS, ei.TdtUS)
	}
}

func TestInfeasibleSubgraph(t *testing.T) {
	// A single filter whose double-buffered IO exceeds 48KB shared memory:
	// pop=push=4096 tokens => 2*2*4096*4 = 64KB > 48KB.
	g, _ := sdf.Flatten("big", sdf.Pipe("p", sdf.F(work("huge", 4096, 1))))
	_, err := EstimateSubgraph(wholeSub(t, g), ProfileGraph(g, gpu.M2090()))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestEngineMemoizes(t *testing.T) {
	g, _ := sdf.Flatten("p", sdf.Pipe("p", sdf.F(work("a", 4, 10)), sdf.F(work("b", 4, 10))))
	e := NewEngine(g, ProfileGraph(g, gpu.M2090()))
	if _, err := e.Estimate([]sdf.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate([]sdf.NodeID{0}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Queries != 2 || st.Misses != 1 {
		t.Errorf("queries=%d misses=%d, want 2/1", st.Queries, st.Misses)
	}
	if st.Hits() != 1 || st.HitRate() != 0.5 {
		t.Errorf("hits=%d hitRate=%v, want 1/0.5", st.Hits(), st.HitRate())
	}
}

func TestCalibrateRecoversConstants(t *testing.T) {
	d := gpu.M2090()
	wantC1, wantC2 := 38.4, 11.2
	var samples []Sample
	for i := 1; i <= 20; i++ {
		p := Params{S: i%7 + 1, W: i%5 + 1, F: 32 * (i%4 + 1)}
		D := int64(512 * i)
		samples = append(samples, Sample{
			DBytes:    D,
			Params:    p,
			MeasDtUS:  d.CyclesToUS(wantC1 * float64(D) / float64(p.F)),
			MeasDbUS:  d.CyclesToUS(wantC2 * float64(D) / float64(p.F+p.W*p.S)),
			DeviceMHz: d.CoreClockMHz,
		})
	}
	c1, c2, err := Calibrate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c1-wantC1) > 1e-6 || math.Abs(c2-wantC2) > 1e-6 {
		t.Errorf("calibrated (%v, %v), want (%v, %v)", c1, c2, wantC1, wantC2)
	}
}

func TestCalibrateRejectsEmpty(t *testing.T) {
	if _, _, err := Calibrate(nil); err == nil {
		t.Fatal("expected error on empty samples")
	}
}

func TestRSquared(t *testing.T) {
	if r := RSquared([]float64{1, 2, 3}, []float64{1, 2, 3}); r != 1 {
		t.Errorf("perfect fit R2 = %v", r)
	}
	r := RSquared([]float64{1, 2, 3}, []float64{1.1, 1.9, 3.2})
	if r < 0.9 || r >= 1 {
		t.Errorf("near fit R2 = %v", r)
	}
}

// Property: estimates are positive, normalized by W, and merging a filter
// into a pipeline never reports negative times.
func TestEstimatePositiveQuick(t *testing.T) {
	d := gpu.M2090()
	f := func(opsRaw uint16, width uint8) bool {
		ops := int64(opsRaw)%5000 + 1
		n := int(width)%32 + 1
		g, err := sdf.Flatten("q", sdf.Pipe("p", sdf.F(work("a", n, ops)), sdf.F(work("b", n, ops))))
		if err != nil {
			return false
		}
		sub, err := g.Extract([]sdf.NodeID{0, 1})
		if err != nil {
			return false
		}
		est, err := EstimateSubgraph(sub, ProfileGraph(g, d))
		if err != nil {
			return false
		}
		return est.TUS > 0 && est.TexecUS >= est.TUS && est.TcompUS > 0 && est.TdtUS > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestProfileGraphCostLaw(t *testing.T) {
	d := gpu.M2090()
	f := work("a", 3, 10) // 3 peek + 3 push tokens, 10 ops
	g, _ := sdf.Flatten("p", sdf.Pipe("p", sdf.F(f)))
	prof := ProfileGraph(g, d)
	want := d.FiringOverhead + 10*d.CyclesPerOp + 6*d.SMCyclesPerToken
	if got := prof.PerFiringCycles[0]; got != want {
		t.Errorf("per-firing cycles = %v, want %v", got, want)
	}
}
