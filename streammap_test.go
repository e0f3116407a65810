package streammap

import (
	"context"
	"sync"
	"testing"
	"time"

	"streammap/internal/mapping"
	"streammap/internal/sdf"
)

// quickstartProgram builds the doc-comment quick-start chain: scale ->
// (lowpass | highpass) -> mix over frames of 16 samples.
func quickstartProgram() Stream {
	const frame = 16
	scale := NewFilter("Scale", frame, frame, 0, frame, func(w *Work) {
		for i := 0; i < frame; i++ {
			w.Out[0][i] = w.In[0][i] * 0.5
		}
	})
	lowpass := NewFilter("LowPass", frame, frame, 0, 3*frame, func(w *Work) {
		prev := Token(0)
		for i := 0; i < frame; i++ {
			w.Out[0][i] = (w.In[0][i] + prev) * 0.5
			prev = w.In[0][i]
		}
	})
	highpass := NewFilter("HighPass", frame, frame, 0, 3*frame, func(w *Work) {
		prev := Token(0)
		for i := 0; i < frame; i++ {
			w.Out[0][i] = (w.In[0][i] - prev) * 0.5
			prev = w.In[0][i]
		}
	})
	mix := NewFilter("Mix", 2*frame, frame, 0, 2*frame, func(w *Work) {
		for i := 0; i < frame; i++ {
			w.Out[0][i] = w.In[0][i] + w.In[0][frame+i]
		}
	})
	return Pipe("toy",
		F(scale),
		SplitDupRR("bands", frame, []int{frame, frame}, F(lowpass), F(highpass)),
		F(mix))
}

// TestQuickstartEndToEnd exercises the re-exported Pipe / Flatten / Compile
// / Execute path of the package comment and verifies the simulated output
// against the host interpreter.
func TestQuickstartEndToEnd(t *testing.T) {
	g, err := Flatten("toy", quickstartProgram())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g, Options{Topo: PairedTree(2), FragmentIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Parts.Parts) < 1 {
		t.Fatal("no partitions")
	}
	if len(c.Stages) == 0 {
		t.Error("compiled result carries no stage metrics")
	}

	const fragments = 4
	in := make([]Token, c.InputNeed(0, fragments))
	for i := range in {
		in[i] = Token(i % 17)
	}
	res, err := c.Execute([][]Token{in}, fragments)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := sdf.NewInterp(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(8*fragments, [][]Token{in})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs[0]) != len(want[0]) {
		t.Fatalf("output %d tokens, interpreter %d", len(res.Outputs[0]), len(want[0]))
	}
	for i := range want[0] {
		if res.Outputs[0][i] != want[0][i] {
			t.Fatalf("output mismatch at token %d", i)
		}
	}
}

// TestCompileCtxCancel: the public cancellable entry point aborts.
func TestCompileCtxCancel(t *testing.T) {
	g, err := Flatten("toy", quickstartProgram())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileCtx(ctx, g, Options{}); err == nil {
		t.Error("cancelled compile succeeded")
	}
}

// TestServiceConcurrentIdenticalPlans compiles the same graph from many
// goroutines through the service and asserts cache hits and identical
// plans.
func TestServiceConcurrentIdenticalPlans(t *testing.T) {
	svc := NewService(ServiceConfig{})
	g, err := Flatten("toy", quickstartProgram())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Topo:       PairedTree(2),
		MapOptions: mapping.Options{TimeBudget: 300 * time.Millisecond},
	}

	const N = 64
	results := make([]*Compiled, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Compile(context.Background(), g, opts)
		}(i)
	}
	wg.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	first := results[0]
	for i := 1; i < N; i++ {
		c := results[i]
		if c != first {
			// A different *Compiled is only possible if the first entry was
			// evicted mid-flood; with the default cache size it is a bug.
			t.Fatalf("request %d got a distinct compilation", i)
		}
	}
	st := svc.Stats()
	if st.Misses != 1 {
		t.Errorf("%d compilations ran for %d identical requests, want 1", st.Misses, N)
	}
	if st.Hits != N-1 {
		t.Errorf("%d cache hits, want %d", st.Hits, N-1)
	}

	// The plan every caller got is the same deterministic result a direct
	// compile of a structurally identical graph produces.
	g2, err := Flatten("toy", quickstartProgram())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Compile(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Parts.Parts) != len(first.Parts.Parts) {
		t.Errorf("service plan has %d partitions, direct compile %d",
			len(first.Parts.Parts), len(direct.Parts.Parts))
	}
	if direct.Assign.Objective != first.Assign.Objective {
		t.Errorf("service objective %v, direct %v", first.Assign.Objective, direct.Assign.Objective)
	}
	for i := range direct.Assign.GPUOf {
		if direct.Assign.GPUOf[i] != first.Assign.GPUOf[i] {
			t.Fatalf("assignment differs at partition %d", i)
		}
	}
}

// TestZeroSharedMemoryGraphCompiles: a zero-copy source feeding a sink needs
// no shared memory at all (the producer's buffer is compiled away and there
// is no primary I/O), which once divided by zero in the parameter sweep.
// The estimator bounds such a partition by the thread cap instead, so the
// graph compiles and executes.
func TestZeroSharedMemoryGraphCompiles(t *testing.T) {
	src := sdf.NewSource("ZeroCopySource", 4, 4, func(w *Work) {
		for i := range w.Out[0] {
			w.Out[0][i] = Token(i)
		}
	})
	src.ZeroCopy = true
	sink := sdf.NewSink("Sink", 4, 4, func(*Work) {})
	g, err := Flatten("zero-sm", Pipe("p", F(src), F(sink)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g, Options{Topo: PairedTree(2), FragmentIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for _, p := range c.Parts.Parts {
		if p.Est.SMBytes == 0 {
			whole = true
			if w, s, f := p.Est.Params.W, p.Est.Params.S, p.Est.Params.F; w < 1 || s < 1 || f < 1 || w*s+f > c.Options.Device.MaxThreadsPerBlock {
				t.Errorf("zero-shared-memory partition got parameters S=%d W=%d F=%d", s, w, f)
			}
		}
	}
	if !whole {
		t.Error("no partition with zero shared-memory demand: the graph no longer exercises the case")
	}
	if _, err := c.Execute(nil, 4); err != nil {
		t.Fatal(err)
	}
}
