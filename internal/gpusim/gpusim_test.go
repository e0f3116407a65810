package gpusim_test

import (
	"math"
	"testing"

	"streammap/internal/core"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func addConst(name string, n int, c sdf.Token, ops int64) *sdf.Filter {
	return sdf.NewFilter(name, n, n, 0, ops, func(w *sdf.Work) {
		for i := 0; i < n; i++ {
			w.Out[0][i] = w.In[0][i] + c
		}
	})
}

func seq(n int64) []sdf.Token {
	out := make([]sdf.Token, n)
	for i := range out {
		out[i] = sdf.Token(i % 251)
	}
	return out
}

func compile(t *testing.T, s sdf.Stream, gpus int, kind core.PartitionerKind, mapper core.MapperKind) *core.Compiled {
	t.Helper()
	g, err := sdf.Flatten("app", s)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(g, core.Options{
		Topo:        topology.PairedTree(gpus),
		Partitioner: kind,
		Mapper:      mapper,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hotSJ is a compute-bound split-join app that partitions into several
// kernels.
func hotSJ() sdf.Stream {
	return sdf.Pipe("app",
		sdf.F(addConst("pre", 512, 1, 512)),
		sdf.SplitDupRR("sj", 512, []int{512, 512},
			sdf.F(addConst("h0", 512, 2, 400000)),
			sdf.F(addConst("h1", 512, 3, 400000))),
		sdf.F(addConst("post", 1024, 1, 1024)))
}

func TestFunctionalEquivalenceWithReference(t *testing.T) {
	c := compile(t, hotSJ(), 2, core.Alg1, core.ILPMapper)
	const fragments = 3
	in := seq(c.InputNeed(0, fragments))

	res, err := c.Execute([][]sdf.Token{in}, fragments)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: whole-graph host interpreter.
	ref, err := sdf.NewInterp(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	iters := c.Options.FragmentIters * fragments
	want, err := ref.Run(iters, [][]sdf.Token{in})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != len(want) {
		t.Fatalf("output port count %d vs %d", len(res.Outputs), len(want))
	}
	for p := range want {
		if len(res.Outputs[p]) != len(want[p]) {
			t.Fatalf("port %d: %d tokens vs %d", p, len(res.Outputs[p]), len(want[p]))
		}
		for i := range want[p] {
			if res.Outputs[p][i] != want[p][i] {
				t.Fatalf("port %d token %d: %v != %v", p, i, res.Outputs[p][i], want[p][i])
			}
		}
	}
}

func TestMultiGPUFasterThanSingleForParallelWork(t *testing.T) {
	run := func(gpus int) float64 {
		c := compile(t, hotSJ(), gpus, core.Alg1, core.ILPMapper)
		const fragments = 8
		in := seq(c.InputNeed(0, fragments))
		res, err := c.Execute([][]sdf.Token{in}, fragments)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerFragmentUS
	}
	one := run(1)
	two := run(2)
	if two >= one {
		t.Errorf("2-GPU per-fragment %v not faster than 1-GPU %v", two, one)
	}
}

func TestPipeliningOverlapsFragments(t *testing.T) {
	c := compile(t, hotSJ(), 2, core.Alg1, core.ILPMapper)
	const fragments = 8
	in := seq(c.InputNeed(0, fragments))
	res, err := c.Execute([][]sdf.Token{in}, fragments)
	if err != nil {
		t.Fatal(err)
	}
	// With pipelining, total time must be less than fragments *
	// first-fragment latency, and the steady-state period must beat the
	// fill latency.
	if res.MakespanUS >= res.FragmentEndUS[0]*float64(fragments) {
		t.Errorf("no pipeline overlap: makespan %v vs first fragment %v x %d",
			res.MakespanUS, res.FragmentEndUS[0], fragments)
	}
	if res.PerFragmentUS >= res.FragmentEndUS[0] {
		t.Errorf("steady-state period %v not below fill latency %v",
			res.PerFragmentUS, res.FragmentEndUS[0])
	}
	// Fragment completion times must be non-decreasing.
	for i := 1; i < fragments; i++ {
		if res.FragmentEndUS[i] < res.FragmentEndUS[i-1] {
			t.Errorf("fragment %d ends before fragment %d", i, i-1)
		}
	}
}

func TestViaHostSlowerOrEqualThanP2P(t *testing.T) {
	// Same assignment, via-host vs p2p execution of a communicating app.
	c := compile(t, hotSJ(), 2, core.Alg1, core.ILPMapper)
	const fragments = 8
	in := seq(c.InputNeed(0, fragments))
	p2p, err := c.Execute([][]sdf.Token{in}, fragments)
	if err != nil {
		t.Fatal(err)
	}
	planVH := *c.Plan
	planVH.ViaHost = true
	vh, err := gpusim.Run(&planVH, [][]sdf.Token{seq(c.InputNeed(0, fragments))}, fragments)
	if err != nil {
		t.Fatal(err)
	}
	if vh.MakespanUS < p2p.MakespanUS-1e-9 {
		t.Errorf("via-host (%v) should not beat p2p (%v)", vh.MakespanUS, p2p.MakespanUS)
	}
}

func TestMeasureKernelDeterministic(t *testing.T) {
	c := compile(t, hotSJ(), 1, core.Alg1, core.ILPMapper)
	for _, k := range c.Plan.Kernels {
		a := gpusim.MeasureKernel(c.Plan, k)
		b := gpusim.MeasureKernel(c.Plan, k)
		if a != b {
			t.Errorf("MeasureKernel not deterministic: %+v vs %+v", a, b)
		}
		if a.TexecUS <= 0 || a.PerExecUS <= 0 {
			t.Errorf("non-positive kernel timing %+v", a)
		}
		if a.TexecUS < a.TcompUS {
			t.Errorf("Texec %v below Tcomp %v", a.TexecUS, a.TcompUS)
		}
	}
}

func TestMeasurementCorrelatesWithEstimate(t *testing.T) {
	// The estimator should predict the simulator well (the Fig 4.1 claim):
	// check relative error across the partitions of a mixed app.
	c := compile(t, hotSJ(), 1, core.Alg1, core.ILPMapper)
	var pred, meas []float64
	for _, k := range c.Plan.Kernels {
		pred = append(pred, k.TUS)
		meas = append(meas, gpusim.MeasureKernel(c.Plan, k).PerExecUS)
	}
	for i := range pred {
		ratio := meas[i] / pred[i]
		if ratio < 0.8 || ratio > 2.5 {
			t.Errorf("partition %d: measured/estimated = %v, out of plausible band", i, ratio)
		}
	}
	if r2 := pee.RSquared(pred, meas); r2 < 0.9 {
		t.Errorf("R^2 = %v across %d partitions, want >= 0.9", r2, len(pred))
	}
}

func TestKernelFragmentScaling(t *testing.T) {
	c := compile(t, hotSJ(), 1, core.Alg1, core.ILPMapper)
	k := c.Plan.Kernels[0]
	d := c.Plan.Machine.Device
	one := gpusim.KernelFragmentUS(c.Plan, k, 1)
	// Enough executions to need multiple waves: time grows.
	many := gpusim.KernelFragmentUS(c.Plan, k, int64(k.Params.W*d.NumSMs*4))
	if many <= one {
		t.Errorf("4-wave fragment (%v) should cost more than 1 execution (%v)", many, one)
	}
	if gpusim.KernelFragmentUS(c.Plan, k, 0) != 0 {
		t.Errorf("zero executions should cost 0")
	}
}

func TestPrevWorkPipelineRuns(t *testing.T) {
	c := compile(t, hotSJ(), 2, core.PrevWorkPart, core.PrevWorkMap)
	const fragments = 4
	in := seq(c.InputNeed(0, fragments))
	res, err := c.Execute([][]sdf.Token{in}, fragments)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanUS <= 0 {
		t.Errorf("makespan %v", res.MakespanUS)
	}
	// Functional equivalence holds for the baseline too.
	ref, _ := sdf.NewInterp(c.Graph)
	want, err := ref.Run(c.Options.FragmentIters*fragments, [][]sdf.Token{seq(c.InputNeed(0, fragments))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if res.Outputs[0][i] != want[0][i] {
			t.Fatalf("baseline output mismatch at %d", i)
		}
	}
}

func TestInsufficientInputRejected(t *testing.T) {
	c := compile(t, hotSJ(), 1, core.Alg1, core.ILPMapper)
	if _, err := c.Execute([][]sdf.Token{{1, 2, 3}}, 4); err == nil {
		t.Fatal("expected input-shortage error")
	}
}

func TestGPUBusyConservation(t *testing.T) {
	c := compile(t, hotSJ(), 2, core.Alg1, core.ILPMapper)
	const fragments = 5
	in := seq(c.InputNeed(0, fragments))
	res, err := c.Execute([][]sdf.Token{in}, fragments)
	if err != nil {
		t.Fatal(err)
	}
	var busy float64
	for _, b := range res.GPUBusyUS {
		busy += b
	}
	var expect float64
	for _, k := range res.KernelUS {
		expect += k * fragments
	}
	if math.Abs(busy-expect) > 1e-6*expect {
		t.Errorf("GPU busy %v != kernels x fragments %v", busy, expect)
	}
}

func TestDeviceScalingG1VsG2(t *testing.T) {
	// The same app compiled for C2070 must run slower than on M2090, by
	// roughly the compute/bandwidth scaling of §4.0.5.
	g1 := gpu.C2070()
	g2 := gpu.M2090()
	run := func(d gpu.Device) float64 {
		g, err := sdf.Flatten("app", hotSJ())
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(g, core.Options{Device: d, Topo: topology.PairedTree(1)})
		if err != nil {
			t.Fatal(err)
		}
		in := seq(c.InputNeed(0, 6))
		res, err := c.Execute([][]sdf.Token{in}, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerFragmentUS
	}
	t1, t2 := run(g1), run(g2)
	ratio := t1 / t2
	if ratio < 1.05 || ratio > 1.6 {
		t.Errorf("C2070/M2090 slowdown = %v, want within (1.05, 1.6)", ratio)
	}
}
