package codegen

import (
	"context"
	"strings"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/topology"
)

func compileDES(t *testing.T, gpus int) *driver.Compiled {
	t.Helper()
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(context.Background(), g, driver.Options{Topo: topology.PairedTree(gpus)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCUDAContainsKernelsAndDriver(t *testing.T) {
	c := compileDES(t, 2)
	src, err := CUDA(c.Plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"__global__ void partition0_kernel",
		"extern __shared__ float sm[]",
		"dt_stream_in",
		"swap_buffers",
		"run_pipeline",
		"cudaSetDevice",
		"shared-memory buffer map",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated CUDA missing %q", want)
		}
	}
	// One kernel per partition.
	if got := strings.Count(src, "__global__ void"); got != len(c.Parts.Parts) {
		t.Errorf("%d kernels for %d partitions", got, len(c.Parts.Parts))
	}
}

func TestCUDAPeerVsHostTransfers(t *testing.T) {
	c := compileDES(t, 2)
	p2p, err := CUDA(c.Plan)
	if err != nil {
		t.Fatal(err)
	}
	planVH := *c.Plan
	planVH.ViaHost = true
	vh, err := CUDA(&planVH)
	if err != nil {
		t.Fatal(err)
	}
	hasCross := false
	for _, e := range c.PDG.Edges {
		if c.Assign.GPUOf[e.From] != c.Assign.GPUOf[e.To] {
			hasCross = true
		}
	}
	if !hasCross {
		t.Skip("mapping produced no cross-GPU edges")
	}
	if !strings.Contains(p2p, "cudaMemcpyPeerAsync") {
		t.Errorf("p2p plan should use cudaMemcpyPeerAsync")
	}
	if !strings.Contains(vh, "cudaMemcpyDeviceToHost") || strings.Contains(vh, "cudaMemcpyPeerAsync") {
		t.Errorf("via-host plan should stage through the host only")
	}
}

func TestCUDAParametersMatchEstimates(t *testing.T) {
	c := compileDES(t, 1)
	src, err := CUDA(c.Plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range c.Parts.Parts {
		p := part.Est.Params
		header := "S=" + itoa(p.S) + " compute threads/execution, W=" + itoa(p.W) +
			" executions/SM, F=" + itoa(p.F) + " DT threads"
		if !strings.Contains(src, header) {
			t.Errorf("missing parameter header %q", header)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	out := ""
	for v > 0 {
		out = string(rune('0'+v%10)) + out
		v /= 10
	}
	return out
}

func TestDotAndReport(t *testing.T) {
	c := compileDES(t, 2)
	dot := Dot(c.Plan)
	for _, want := range []string{"digraph streamgraph", "subgraph cluster_p0", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q", want)
		}
	}
	rep := Report(c.Plan)
	for _, want := range []string{"partitions", "inter-GPU edges", "gpu="} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestCUDADeterministic(t *testing.T) {
	c := compileDES(t, 2)
	a, err := CUDA(c.Plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CUDA(c.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("code generation is not deterministic")
	}
}
