package core

import (
	"context"
	"testing"

	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func toy() sdf.Stream {
	f := func(name string, ops int64) *sdf.Filter {
		return sdf.NewFilter(name, 16, 16, 0, ops, func(w *sdf.Work) {
			copy(w.Out[0], w.In[0][:16])
		})
	}
	return sdf.Pipe("toy", sdf.F(f("a", 100)), sdf.F(f("b", 2000)), sdf.F(f("c", 100)))
}

func TestCompileDefaults(t *testing.T) {
	g, err := sdf.Flatten("toy", toy())
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Options.Device.Name != "M2090" {
		t.Errorf("default device %s", c.Options.Device.Name)
	}
	if c.Options.FragmentIters != 512 {
		t.Errorf("default B = %d", c.Options.FragmentIters)
	}
	if len(c.Plan.Kernels) != len(c.Parts.Parts) {
		t.Errorf("plan/parts mismatch")
	}
	if len(c.Assign.GPUOf) != c.PDG.NumParts() {
		t.Errorf("assignment arity mismatch")
	}
}

func TestCompileAllVariants(t *testing.T) {
	for _, pk := range []driver.PartitionerKind{driver.Alg1, driver.PrevWorkPart, driver.SinglePart} {
		for _, mk := range []driver.MapperKind{driver.ILPMapper, driver.PrevWorkMap} {
			g, err := sdf.Flatten("toy", toy())
			if err != nil {
				t.Fatal(err)
			}
			c, err := driver.Compile(context.Background(), g, driver.Options{
				Topo:        topology.PairedTree(2),
				Partitioner: pk,
				Mapper:      mk,
			})
			if err != nil {
				t.Fatalf("partitioner %d mapper %d: %v", pk, mk, err)
			}
			if c.Plan.ViaHost != (mk == driver.PrevWorkMap) {
				t.Errorf("ViaHost should follow the mapper kind")
			}
		}
	}
}

func TestCompileRejectsBadOptions(t *testing.T) {
	g, err := sdf.Flatten("toy", toy())
	if err != nil {
		t.Fatal(err)
	}
	bad := gpu.M2090()
	bad.NumSMs = 0
	if _, err := driver.Compile(context.Background(), g, driver.Options{Device: bad}); err == nil {
		t.Error("invalid device accepted")
	}
	if _, err := driver.Compile(context.Background(), g, driver.Options{Partitioner: driver.PartitionerKind(99)}); err == nil {
		t.Error("unknown partitioner accepted")
	}
	if _, err := driver.Compile(context.Background(), g, driver.Options{Mapper: driver.MapperKind(99)}); err == nil {
		t.Error("unknown mapper accepted")
	}
}

func TestFragmentTimesWaveLaw(t *testing.T) {
	g, err := sdf.Flatten("toy", toy())
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{FragmentIters: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range c.Parts.Parts {
		ti := c.Problem.PartTimeUS(i)
		if ti < part.Est.TexecUS {
			t.Errorf("partition %d: T_i %v below one wave %v", i, ti, part.Est.TexecUS)
		}
		if ti < c.Options.Device.KernelLaunchUS {
			t.Errorf("partition %d: T_i %v misses launch cost", i, ti)
		}
	}
}

func TestInputNeed(t *testing.T) {
	g, err := sdf.Flatten("toy", toy())
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{FragmentIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.InputNeed(0, 4); got != 16*8*4 {
		t.Errorf("InputNeed = %d, want %d", got, 16*8*4)
	}
}

func TestExecuteEndToEnd(t *testing.T) {
	g, err := sdf.Flatten("toy", toy())
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{Topo: topology.PairedTree(2), FragmentIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]sdf.Token, c.InputNeed(0, 3))
	for i := range in {
		in[i] = sdf.Token(i % 7)
	}
	res, err := c.Execute([][]sdf.Token{in}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs[0]) != len(in) {
		t.Errorf("output %d tokens for %d input", len(res.Outputs[0]), len(in))
	}
	for i := range in {
		if res.Outputs[0][i] != in[i] {
			t.Fatalf("copy chain altered token %d", i)
		}
	}
}
