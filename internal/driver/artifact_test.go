package driver_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streammap"
	"streammap/internal/apps"
	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/partition"
	"streammap/internal/sdf"
	"streammap/internal/smreq"
	"streammap/internal/topology"
)

// paperApps is the six-application benchmark suite at sizes small enough
// for a full round-trip test per app.
var paperApps = []struct {
	name string
	n    int
	gpus int
}{
	{"DES", 4, 2},
	{"FMRadio", 4, 4},
	{"FFT", 16, 2},
	{"DCT", 6, 4},
	{"MatMul2", 3, 2},
	{"BitonicRec", 8, 4},
}

func compileApp(t *testing.T, name string, n, gpus int) (*sdf.Graph, *driver.Compiled) {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	g, err := apps.BuildGraph(app, n)
	if err != nil {
		t.Fatal(err)
	}
	// ILPMaxParts 8 keeps large instances on the local-search portfolio.
	c, err := driver.Compile(context.Background(), g, driver.Options{
		Topo:       topology.PairedTree(gpus),
		MapOptions: mapping.Options{ILPMaxParts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

// TestImportOptionsRoundTrip: ImportOptions must invert ExportOptions
// exactly — the server trusts this to rebuild a request's compile options
// from the wire and still land on the same cache key.
func TestImportOptionsRoundTrip(t *testing.T) {
	cases := []driver.Options{
		{},
		{Topo: topology.PairedTree(4), FragmentIters: 128},
		{
			Topo:        topology.PairedTree(2),
			Partitioner: driver.PrevWorkPart,
			Mapper:      driver.PrevWorkMap,
			MapOptions:  mapping.Options{ILPMaxParts: 8, ForceILP: true},
		},
	}
	for i, opts := range cases {
		wire := driver.ExportOptions(opts)
		got, err := driver.ImportOptions(wire)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if back := driver.ExportOptions(got); !reflect.DeepEqual(back, wire) {
			t.Errorf("case %d: re-export %+v != original wire %+v", i, back, wire)
		}
	}
	// Zero wire fields select the defaults, as zero Options fields do.
	if got, err := driver.ImportOptions(artifact.Options{}); err != nil {
		t.Errorf("zero wire options: %v", err)
	} else if back, want := driver.ExportOptions(got), driver.ExportOptions(driver.Options{}); !reflect.DeepEqual(back, want) {
		t.Errorf("zero wire options import as %+v, want the defaults %+v", back, want)
	}
	for name, mutate := range map[string]func(*artifact.Options){
		"partitioner": func(w *artifact.Options) { w.Partitioner = "nope" },
		"mapper":      func(w *artifact.Options) { w.Mapper = "nope" },
		"topology":    func(w *artifact.Options) { w.Topo.GPUNodes = nil },
		"device":      func(w *artifact.Options) { w.Device.NumSMs = -1 },
	} {
		w := driver.ExportOptions(driver.Options{})
		mutate(&w)
		if _, err := driver.ImportOptions(w); err == nil {
			t.Errorf("corrupt %s accepted", name)
		}
	}
}

// TestArtifactRoundTripPaperApps is the golden round-trip contract over the
// paper's benchmark suite: DecodeArtifact(Encode(c.Artifact())) must be
// Equivalent to the original — at artifact level, at Compiled level after
// rehydration, and in bit-identical simulated throughput both through the
// plan rehydrated against the original graph and through the one Rehydrate
// lowers over the embedded structural twin.
func TestArtifactRoundTripPaperApps(t *testing.T) {
	for _, tc := range paperApps {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, c := compileApp(t, tc.name, tc.n, tc.gpus)

			a, err := c.Artifact()
			if err != nil {
				t.Fatal(err)
			}
			data, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			// The run's timings stay on the Compiled; none reach the wire.
			if len(c.Stages) == 0 || a.Stages != nil || bytes.Contains(data, []byte(`"stages"`)) {
				t.Errorf("stage provenance: %d on the compilation, %d exported, the encoding must have no stages key",
					len(c.Stages), len(a.Stages))
			}
			b, err := artifact.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := driver.EquivalentArtifacts(a, b); err != nil {
				t.Fatalf("artifact round trip differs: %v", err)
			}

			// Rehydrate a Compiled from the decoded artifact and hold it to
			// the same fidelity contract as the serial/pipeline pair.
			rc, err := driver.FromArtifact(g, b, c.Options)
			if err != nil {
				t.Fatal(err)
			}
			if err := driver.Equivalent(c, rc); err != nil {
				t.Fatalf("rehydrated compilation differs: %v", err)
			}
			if len(rc.Stages) != 0 {
				t.Errorf("rehydrated compilation claims stage provenance %v", rc.Stages)
			}
			const fragments = 24
			if err := driver.SameThroughput(c, rc, fragments); err != nil {
				t.Fatalf("rehydrated throughput differs: %v", err)
			}

			// The self-contained path (structural twin, no original graph)
			// must be bit-identical too.
			want, err := gpusim.RunTiming(c.Plan, fragments)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := driver.Rehydrate(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gpusim.RunTiming(twin.Plan, fragments)
			if err != nil {
				t.Fatal(err)
			}
			if want.PerFragmentUS != got.PerFragmentUS || want.MakespanUS != got.MakespanUS {
				t.Fatalf("rehydrated twin's throughput (%v, %v) != original (%v, %v)",
					got.PerFragmentUS, got.MakespanUS, want.PerFragmentUS, want.MakespanUS)
			}
		})
	}
}

// TestArtifactExecuteWithFunctional checks the functional path: executing a
// decoded artifact against the original graph produces the same outputs as
// executing the original compilation.
func TestArtifactExecuteWithFunctional(t *testing.T) {
	g, c := compileApp(t, "FMRadio", 4, 2)
	a, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	const fragments = 2
	mkIn := func() [][]sdf.Token {
		ports := g.InputPorts()
		ins := make([][]sdf.Token, len(ports))
		for i := range ports {
			n := c.InputNeed(i, fragments)
			ins[i] = make([]sdf.Token, n)
			for j := range ins[i] {
				ins[i][j] = sdf.Token(j % 13)
			}
		}
		return ins
	}
	want, err := c.Execute(mkIn(), fragments)
	if err != nil {
		t.Fatal(err)
	}
	got, err := streammap.ExecuteWith(b, g, mkIn(), fragments)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("output port count %d vs %d", len(got.Outputs), len(want.Outputs))
	}
	for p := range want.Outputs {
		if len(got.Outputs[p]) != len(want.Outputs[p]) {
			t.Fatalf("port %d: %d tokens vs %d", p, len(got.Outputs[p]), len(want.Outputs[p]))
		}
		for i := range want.Outputs[p] {
			if got.Outputs[p][i] != want.Outputs[p][i] {
				t.Fatalf("port %d token %d differs", p, i)
			}
		}
	}
	if got.PerFragmentUS != want.PerFragmentUS {
		t.Errorf("functional throughput %v != %v", got.PerFragmentUS, want.PerFragmentUS)
	}

	// Wrong graph is rejected up front.
	other, oc := compileApp(t, "DES", 4, 2)
	_ = oc
	if _, err := streammap.ExecuteWith(b, other, mkIn(), fragments); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign graph not rejected: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts driver.Options
		want string
	}{
		{"negative fragment iters", driver.Options{FragmentIters: -1}, "FragmentIters"},
		{"negative workers", driver.Options{Workers: -2}, "Workers"},
		{"unknown partitioner", driver.Options{Partitioner: driver.PartitionerKind(42)}, "partitioner"},
		{"unknown mapper", driver.Options{Mapper: driver.MapperKind(9)}, "mapper"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
		// The same rejection must happen at the compile entry point.
		g, err2 := apps.BuildGraph(mustApp(t, "DES"), 4)
		if err2 != nil {
			t.Fatal(err2)
		}
		if _, cerr := driver.Compile(context.Background(), g, tc.opts); cerr == nil {
			t.Errorf("%s: Compile accepted invalid options", tc.name)
		}
	}
	if err := (driver.Options{}).Validate(); err != nil {
		t.Errorf("zero options must validate (defaults), got %v", err)
	}
}

func TestExecuteValidatesInputsUpFront(t *testing.T) {
	_, c := compileApp(t, "DES", 4, 1)
	if _, err := c.Execute(nil, 4); err == nil || !strings.Contains(err.Error(), "input streams") {
		t.Errorf("missing input streams not rejected descriptively: %v", err)
	}
	if _, err := c.Execute([][]sdf.Token{{}, {}}, 4); err == nil || !strings.Contains(err.Error(), "input streams") {
		t.Errorf("excess input streams not rejected descriptively: %v", err)
	}
	if _, err := c.Execute([][]sdf.Token{{1, 2, 3}}, 4); err == nil || !strings.Contains(err.Error(), "tokens") {
		t.Errorf("short input not rejected descriptively: %v", err)
	}
	if _, err := c.Execute([][]sdf.Token{{1}}, 0); err == nil || !strings.Contains(err.Error(), "fragments") {
		t.Errorf("zero fragments not rejected: %v", err)
	}
}

func TestExecuteCtxCancel(t *testing.T) {
	_, c := compileApp(t, "DES", 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := make([]sdf.Token, c.InputNeed(0, 2))
	if _, err := c.ExecuteCtx(ctx, [][]sdf.Token{in}, 2); err == nil {
		t.Error("cancelled ExecuteCtx returned no error")
	}
}

func mustApp(t *testing.T, name string) apps.App {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return app
}

// TestFromArtifactRejectsMismatches: a decoded artifact must describe the
// compilation being served — wrong options (a misplaced cache entry), an
// objective its placement does not evaluate to, SM bytes its partition does
// not need, a partitioning that is not an exact cover or not convex, and a
// graph fingerprint that is not the graph's are rejected, not silently
// returned. Remap rehydrates through FromArtifact, so it rejects the same
// artifacts. Artifact.Validate checks none of these: FromArtifact is the one
// place a corrupt artifact fails.
func TestFromArtifactRejectsMismatches(t *testing.T) {
	g, c := compileApp(t, "DES", 4, 2)

	// Same graph, different options: the entry is for another compilation.
	wrong := c.Options
	wrong.FragmentIters = c.Options.FragmentIters * 2
	if _, err := driver.FromArtifact(g, decoded(t, c), wrong); err == nil || !strings.Contains(err.Error(), "options") {
		t.Errorf("options mismatch not rejected: %v", err)
	}

	rejectsCorruption(t, g, c, []corruption{
		// One ulp off: the objective is held to its evaluation bit for bit.
		{"objective", "objective", func(b *artifact.Artifact) {
			b.Assignment.Objective = math.Nextafter(b.Assignment.Objective, math.Inf(1))
		}},
		{"placement", "objective", func(b *artifact.Artifact) { b.Assignment.GPUOf[0] ^= 1 }},
		{"smBytes", "smBytes", func(b *artifact.Artifact) { b.Partitions[0].Est.SMBytes += 4 }},
	})

	// FFT-16's first partition is a split-join diamond: without one branch's
	// node it stays connected, so the cover and convexity checks are what
	// reject these. Each corrupted partition's SM bytes are re-derived, so
	// the smBytes check passes.
	g, c = compileApp(t, "FFT", 16, 2)
	nodes := c.Parts.Parts[0].Members
	if len(nodes) != 4 {
		t.Fatalf("FFT-16's first partition has %d nodes, want the 4-node split-join", len(nodes))
	}
	branch := int(nodes[2])
	without := func(b *artifact.Artifact) {
		b.Partitions[0].Nodes = slices.DeleteFunc(b.Partitions[0].Nodes, func(id int) bool { return id == branch })
	}
	rejectsCorruption(t, g, c, []corruption{
		{"node dropped from its partition", "covered", without},
		{"node owned by two partitions", "two partitions", func(b *artifact.Artifact) {
			b.Partitions[1].Nodes = append(b.Partitions[1].Nodes, branch)
		}},
		// The branch moves into a partition of its own: both partitions are
		// connected, the diamond's rest is not convex, and the quotient has
		// the cycle rest -> branch -> rest.
		{"non-convex partition", "cycle", func(b *artifact.Artifact) {
			without(b)
			b.Partitions = append(b.Partitions, artifact.Partition{Nodes: []int{branch}, Est: b.Partitions[0].Est})
			b.Assignment.GPUOf = append(b.Assignment.GPUOf, 0)
		}},
		{"fingerprint", "fingerprint", func(b *artifact.Artifact) { b.Fingerprint++ }},
	})
}

// corruption is one way to damage a decoded artifact, and the word the
// rejection must name.
type corruption struct {
	name, want string
	corrupt    func(b *artifact.Artifact)
}

// decoded returns c's artifact after an encode/decode round trip.
func decoded(t *testing.T, c *driver.Compiled) *artifact.Artifact {
	t.Helper()
	a, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rejectsCorruption applies each corruption to a fresh decode of c's
// artifact, re-derives the SM bytes of every partition whose node list it
// changed, and demands that FromArtifact (against g) and Remap (onto c's
// machine without GPU 1) both reject the result naming tc.want.
func rejectsCorruption(t *testing.T, g *sdf.Graph, c *driver.Compiled, cases []corruption) {
	t.Helper()
	degraded, gpuMap, err := driver.Degrade(decoded(t, c), topology.Degradation{RemoveGPUs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		b := decoded(t, c)
		tc.corrupt(b)
		for i := range b.Partitions {
			p := &b.Partitions[i]
			if i < len(c.Parts.Parts) && slices.Equal(p.Nodes, partition.Export(c.Parts.Parts[i]).Nodes) {
				continue
			}
			members, err := sdf.MembersOf(g.NumNodes(), p.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := g.Extract(members)
			if err != nil {
				t.Fatal(err)
			}
			lay, err := smreq.Analyze(sub)
			if err != nil {
				t.Fatalf("%s: partition %d: %v", tc.name, i, err)
			}
			p.Est.SMBytes = lay.PeakBytes
		}
		if _, err := driver.FromArtifact(g, b, c.Options); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: corrupt artifact not rejected by FromArtifact: %v", tc.name, err)
		}
		if _, err := driver.Remap(context.Background(), b, degraded, driver.RemapOptions{GPUMap: gpuMap}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: corrupt artifact not rejected by Remap: %v", tc.name, err)
		}
	}
}
