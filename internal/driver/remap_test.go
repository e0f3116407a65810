package driver_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"streammap"
	"streammap/internal/apps"
	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/obs"
	"streammap/internal/topology"
)

// remapArtifact compiles an app on the healthy four-GPU tree and returns
// its artifact, ready for degradation.
func remapArtifact(t *testing.T, name string, n int) *artifact.Artifact {
	t.Helper()
	_, c := compileApp(t, name, n, 4)
	a, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRemapMatchesColdCompile: losing a device invalidates only the
// partition-to-GPU mapping, so a pure remap (no re-merge adopted) must be
// exactly Equivalent — partitions, PDG, assignment objective, simulated
// throughput — to a cold compile of the same graph on the degraded tree.
func TestRemapMatchesColdCompile(t *testing.T) {
	for _, tc := range paperApps {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a := remapArtifact(t, tc.name, tc.n)
			degraded, gpuMap, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{3}})
			if err != nil {
				t.Fatal(err)
			}
			if want := []int{0, 1, 2, -1}; !reflect.DeepEqual(gpuMap, want) {
				t.Fatalf("gpuMap = %v, want %v", gpuMap, want)
			}

			remapped, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if remapped.RemapInfo == nil {
				t.Fatal("remapped result carries no RemapInfo")
			}
			for _, gi := range remapped.Assign.GPUOf {
				if gi < 0 || gi >= degraded.NumGPUs() {
					t.Fatalf("assignment references GPU %d of %d survivors", gi, degraded.NumGPUs())
				}
			}

			app, _ := apps.ByName(tc.name)
			g, err := apps.BuildGraph(app, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := driver.Compile(context.Background(), g, driver.Options{
				Topo:       degraded,
				MapOptions: mapping.Options{ILPMaxParts: 8},
			})
			if err != nil {
				t.Fatal(err)
			}

			if remapped.RemapInfo.Remerged {
				// A re-merged remap trades partition structure for a
				// strictly better objective; it cannot be structurally
				// Equivalent, but it must not be worse than the cold plan.
				if remapped.Assign.Objective > cold.Assign.Objective {
					t.Errorf("re-merged objective %g worse than cold compile %g",
						remapped.Assign.Objective, cold.Assign.Objective)
				}
				return
			}
			// What a portfolio remap exports is the cold compile's artifact
			// plus where it came from.
			remapped.RemapInfo = nil
			if err := driver.Equivalent(remapped, cold); err != nil {
				t.Errorf("pure remap != cold compile on degraded tree: %v", err)
			}
			if err := driver.SameThroughput(remapped, cold, 24); err != nil {
				t.Errorf("throughput: %v", err)
			}
		})
	}
}

// TestRemapProvenance: the stage record of a remap must prove that profile,
// partition, pdg and map did NOT run — only "remap" (and "remap-merge" when
// a candidate was scored) may appear — and RemapInfo must point back at the
// healthy topology and the objective it had there.
func TestRemapProvenance(t *testing.T) {
	a := remapArtifact(t, "FMRadio", 4)
	degraded, _, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Stages) == 0 {
		t.Fatal("remap recorded no stages")
	}
	for _, s := range c.Stages {
		if s.Name != "remap" && s.Name != "remap-merge" {
			t.Errorf("stage %q ran during remap; only remap/remap-merge may", s.Name)
		}
	}
	if c.StageDuration("remap") == 0 {
		t.Error("no remap stage recorded")
	}
	if !strings.Contains(c.Stages[0].Info, "gpus 4->2") {
		t.Errorf("remap stage info %q does not record the device loss", c.Stages[0].Info)
	}
	info := c.RemapInfo
	if info == nil {
		t.Fatal("nil RemapInfo")
	}
	if !reflect.DeepEqual(info.FromTopo, a.Options.Topo) {
		t.Errorf("RemapInfo.FromTopo != healthy spec")
	}
	if info.FromObjective != a.Assignment.Objective {
		t.Errorf("RemapInfo.FromObjective = %g, artifact objective %g", info.FromObjective, a.Assignment.Objective)
	}
}

// TestRemapSpeed pins why a warm remap is cheap, as work rather than as a
// wall-clock ratio (which moves whenever the cold compile gets faster, and
// with the machine): across the six-app suite a warm remap runs no profile,
// partition or pdg pass, asks the estimation engine nothing unless the
// re-merge candidate is scored, and descends at most twice — from the
// projected seed and from the greedy reseed. The cold and remap timings on
// the same degraded trees are logged, not asserted.
func TestRemapSpeed(t *testing.T) {
	// Sizes large enough that the partitioning search dominates the cold
	// compile — the regime remap is for; at toy sizes fixed rehydration
	// overhead (graph/profile/partition import) hides the win.
	speedApps := []struct {
		name string
		n    int
	}{
		{"DES", 32}, {"FMRadio", 32}, {"FFT", 128},
		{"DCT", 30}, {"MatMul2", 9}, {"BitonicRec", 64},
	}
	tracer := obs.NewTracer(obs.TracerConfig{})
	var coldTotal, remapTotal time.Duration
	for _, tc := range speedApps {
		a := remapArtifact(t, tc.name, tc.n)
		degraded, gpuMap, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{3}})
		if err != nil {
			t.Fatal(err)
		}
		app, _ := apps.ByName(tc.name)
		g, err := apps.BuildGraph(app, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := driver.Compile(context.Background(), g, driver.Options{
			Topo:       degraded,
			MapOptions: mapping.Options{ILPMaxParts: 8},
		}); err != nil {
			t.Fatal(err)
		}
		cold := time.Since(start)
		coldTotal += cold

		ctx, trace := tracer.StartRequest(context.Background(), "", tc.name)
		start = time.Now()
		rc, err := driver.Remap(ctx, a, degraded, driver.RemapOptions{GPUMap: gpuMap})
		if err != nil {
			t.Fatal(err)
		}
		remap := time.Since(start)
		remapTotal += remap
		trace.Finish(0)
		t.Logf("%s n=%d: cold %v, remap %v", tc.name, tc.n, cold, remap)

		merged := false
		for _, st := range rc.Stages {
			switch st.Name {
			case "remap":
			case "remap-merge":
				merged = true
			default:
				t.Errorf("%s: stage %q ran during a warm remap", tc.name, st.Name)
			}
		}
		if q := rc.Engine.Stats(); !merged && q.Queries+q.Uncached != 0 {
			t.Errorf("%s: warm remap without a re-merge candidate queried the estimation engine: %v", tc.name, q)
		}
		spans := tracer.Snapshot().Recent[0].Spans
		var remapSpan string
		for _, sp := range spans {
			switch sp.Name {
			case "stage.remap":
				remapSpan = sp.ID
			case "stage.profile", "stage.partition", "stage.pdg":
				t.Errorf("%s: warm remap recorded a %s span", tc.name, sp.Name)
			}
		}
		if remapSpan == "" {
			t.Fatalf("%s: no stage.remap span among %d", tc.name, len(spans))
		}
		descents := 0
		for _, sp := range spans {
			if sp.Name == "map.descent" && sp.Parent == remapSpan {
				descents++
			}
		}
		if descents < 1 || descents > 2 {
			t.Errorf("%s: %d descents under stage.remap, want the warm one and at most the greedy reseed", tc.name, descents)
		}
	}
	t.Logf("cold %v, remap %v (%.1fx)", coldTotal, remapTotal, float64(coldTotal)/float64(remapTotal))
}

// TestRemapWarmStartQuality: the warm-started path (survival-map seed +
// single descent) trades the exact-portfolio guarantee for speed; its
// simulated throughput on the degraded tree must stay within the 1.10x
// quality bound of a cold compile across the suite.
func TestRemapWarmStartQuality(t *testing.T) {
	for _, tc := range paperApps {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a := remapArtifact(t, tc.name, tc.n)
			degraded, gpuMap, err := driver.Degrade(a, topology.Degradation{
				RemoveGPUs: []int{2},
				Throttles:  []topology.Throttle{{Node: 2, BandwidthGBs: 4}},
			})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{GPUMap: gpuMap})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(warm.Stages[0].Info, "warm") {
				t.Fatalf("survival map given but stage info %q reports no warm start", warm.Stages[0].Info)
			}
			app, _ := apps.ByName(tc.name)
			g, err := apps.BuildGraph(app, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := driver.Compile(context.Background(), g, driver.Options{
				Topo:       degraded,
				MapOptions: mapping.Options{ILPMaxParts: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			rw, err := gpusim.RunTiming(warm.Plan, 24)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := gpusim.RunTiming(cold.Plan, 24)
			if err != nil {
				t.Fatal(err)
			}
			if ratio := rw.MakespanUS / rc.MakespanUS; ratio > 1.10 {
				t.Errorf("warm remap makespan %.3f vs cold %.3f: ratio %.3f exceeds 1.10",
					rw.MakespanUS, rc.MakespanUS, ratio)
			}
		})
	}
}

// TestRemapRemerge: degrading to a single survivor forces partitions to
// outnumber devices, so the re-merge candidate must be scored — the stage
// record names remap-merge — and the adopted result must stay valid.
func TestRemapRemerge(t *testing.T) {
	a := remapArtifact(t, "DES", 4)
	if a.NumPartitions() < 2 {
		t.Skip("needs a multi-partition compilation")
	}
	degraded, _, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merge := c.StageDuration("remap-merge")
	if merge == 0 {
		t.Error("partitions outnumber the survivor but no remap-merge stage ran")
	}
	if c.RemapInfo.Remerged && len(c.Parts.Parts) >= a.NumPartitions() {
		t.Errorf("re-merge adopted but partition count did not drop (%d -> %d)",
			a.NumPartitions(), len(c.Parts.Parts))
	}
	if got := len(c.Assign.GPUOf); got != len(c.Parts.Parts) {
		t.Fatalf("assignment covers %d of %d partitions", got, len(c.Parts.Parts))
	}
	for _, gi := range c.Assign.GPUOf {
		if gi != 0 {
			t.Errorf("single survivor but partition mapped to GPU %d", gi)
		}
	}
	// The remapped plan must still lower, export and simulate.
	ra, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streammap.Execute(ra, 8); err != nil {
		t.Errorf("remapped artifact does not simulate: %v", err)
	}
}

// TestRemapThrottledLinks: a degradation that only throttles links keeps
// every device, so the remap is always pure and must match a cold compile
// on the throttled (heterogeneous) tree exactly.
func TestRemapThrottledLinks(t *testing.T) {
	a := remapArtifact(t, "DCT", 6)
	degraded, gpuMap, err := driver.Degrade(a, topology.Degradation{
		Throttles: []topology.Throttle{{Node: 2, BandwidthGBs: 1.5, LatencyUS: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(gpuMap, want) {
		t.Fatalf("gpuMap = %v, want identity", gpuMap)
	}
	if !degraded.Heterogeneous() {
		t.Fatal("throttled tree not heterogeneous")
	}
	c, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.RemapInfo.Remerged {
		t.Fatal("throttle-only degradation must never re-merge")
	}
	app, _ := apps.ByName("DCT")
	g, err := apps.BuildGraph(app, 6)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := driver.Compile(context.Background(), g, driver.Options{
		Topo:       degraded,
		MapOptions: mapping.Options{ILPMaxParts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RemapInfo = nil
	if err := driver.Equivalent(c, cold); err != nil {
		t.Errorf("remap onto throttled tree != cold compile: %v", err)
	}
	if err := driver.SameThroughput(c, cold, 24); err != nil {
		t.Errorf("throughput: %v", err)
	}
}

// TestRemapArtifactRoundTrip: a remapped compilation must survive
// Encode/Decode/FromArtifact with its RemapInfo provenance intact.
func TestRemapArtifactRoundTrip(t *testing.T) {
	a := remapArtifact(t, "MatMul2", 3)
	degraded, _, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Remap == nil {
		t.Fatal("remapped artifact carries no Remap provenance")
	}
	data, err := ra.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.EquivalentArtifacts(ra, back); err != nil {
		t.Fatal(err)
	}
	rc, err := driver.FromArtifact(c.Graph, back, c.Options)
	if err != nil {
		t.Fatal(err)
	}
	if rc.RemapInfo == nil || !reflect.DeepEqual(*rc.RemapInfo, *c.RemapInfo) {
		t.Errorf("FromArtifact RemapInfo %+v != %+v", rc.RemapInfo, c.RemapInfo)
	}
	if err := driver.Equivalent(rc, c); err != nil {
		t.Errorf("rehydrated remap != original: %v", err)
	}
}

// TestDecodeRejectsAssignmentBeyondTopology is the regression for the
// degraded-artifact hole: an assignment referencing a GPU index that the
// embedded (degraded) topology spec does not have must fail Decode, not
// surface later as an out-of-range panic in the simulator.
func TestDecodeRejectsAssignmentBeyondTopology(t *testing.T) {
	a := remapArtifact(t, "FFT", 16)
	degraded, _, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt through raw JSON so Encode's own validation cannot save us:
	// point a partition at a GPU that only existed pre-degradation.
	ra.Assignment.GPUOf[0] = degraded.NumGPUs()
	data, err := json.Marshal(ra)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Decode(data); err == nil {
		t.Fatal("Decode accepted an assignment referencing a removed GPU")
	} else if !strings.Contains(err.Error(), "gpu") && !strings.Contains(err.Error(), "GPU") {
		t.Errorf("rejection reason %q does not mention the GPU range", err)
	}
}

// TestRemapErrors covers the argument contract.
func TestRemapErrors(t *testing.T) {
	a := remapArtifact(t, "DES", 4)
	if _, err := driver.Remap(context.Background(), a, nil, driver.RemapOptions{}); err == nil {
		t.Error("nil degraded topology accepted")
	}
	bad := *a
	bad.Fingerprint++
	if _, err := driver.Remap(context.Background(), &bad, topology.FourGPUTree(), driver.RemapOptions{}); err == nil {
		t.Error("fingerprint mismatch accepted")
	}
	// A cancelled remap is an error on both mapping paths, never the plan
	// the cut-short descents had reached.
	degraded, gpuMap, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []driver.RemapOptions{{}, {GPUMap: gpuMap}} {
		if c, err := driver.Remap(ctx, a, degraded, opts); !errors.Is(err, context.Canceled) || c != nil {
			t.Errorf("cancelled remap (warm=%t) returned %v, %v; want nil, context.Canceled", opts.GPUMap != nil, c, err)
		}
	}
}
