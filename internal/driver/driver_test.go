package driver

import (
	"context"
	"slices"
	"testing"
	"time"

	"streammap/internal/apps"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/topology"
)

func compileBoth(t *testing.T, appName string, n, gpus int) (*Compiled, *Compiled) {
	t.Helper()
	app, ok := apps.ByName(appName)
	if !ok {
		t.Fatalf("unknown app %s", appName)
	}
	opts := Options{
		Topo:       topology.PairedTree(gpus),
		MapOptions: mapping.Options{TimeBudget: 500 * time.Millisecond},
	}
	gs, err := apps.BuildGraph(app, n)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	serial, err := Compile(context.Background(), gs, opts)
	if err != nil {
		t.Fatalf("%s serial: %v", appName, err)
	}
	gp, err := apps.BuildGraph(app, n)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	pipe, err := Compile(context.Background(), gp, opts)
	if err != nil {
		t.Fatalf("%s pipeline: %v", appName, err)
	}
	return serial, pipe
}

// TestGoldenPipelineMatchesSerial is the paper-fidelity golden test: for a
// fixed graph/device/topology the concurrent pipeline must produce the same
// partition count, the same partitions, the same assignment cost and the
// same simulated throughput at eight workers as at one, the serial
// reference.
func TestGoldenPipelineMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		app  string
		n    int
		gpus int
	}{
		{"DES", 12, 4},
		{"FMRadio", 8, 2},
		{"FFT", 64, 4},
		{"BitonicRec", 16, 4},
	} {
		serial, pipe := compileBoth(t, tc.app, tc.n, tc.gpus)

		if len(pipe.Parts.Parts) != len(serial.Parts.Parts) {
			t.Errorf("%s: partition count %d != %d", tc.app, len(pipe.Parts.Parts), len(serial.Parts.Parts))
			continue
		}
		for i := range pipe.Parts.Parts {
			if !slices.Equal(pipe.Parts.Parts[i].Members, serial.Parts.Parts[i].Members) {
				t.Errorf("%s: partition %d differs", tc.app, i)
			}
		}
		if pipe.Assign.Objective != serial.Assign.Objective {
			t.Errorf("%s: assignment cost %v != %v", tc.app, pipe.Assign.Objective, serial.Assign.Objective)
		}
		for i := range pipe.Assign.GPUOf {
			if pipe.Assign.GPUOf[i] != serial.Assign.GPUOf[i] {
				t.Fatalf("%s: assignment differs at partition %d", tc.app, i)
			}
		}

		sr, err := gpusim.RunTiming(serial.Plan, 32)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := gpusim.RunTiming(pipe.Plan, 32)
		if err != nil {
			t.Fatal(err)
		}
		if pr.PerFragmentUS != sr.PerFragmentUS {
			t.Errorf("%s: simulated throughput %v != %v us/fragment", tc.app, pr.PerFragmentUS, sr.PerFragmentUS)
		}
	}
}

// TestStageMetrics: every pass is recorded, named and ordered.
func TestStageMetrics(t *testing.T) {
	_, pipe := compileBoth(t, "DES", 8, 2)
	want := []string{"profile", "partition", "pdg", "map", "plan"}
	if len(pipe.Stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(pipe.Stages), len(want))
	}
	for i, name := range want {
		if pipe.Stages[i].Name != name {
			t.Errorf("stage %d = %q, want %q", i, pipe.Stages[i].Name, name)
		}
		if pipe.Stages[i].Duration < 0 {
			t.Errorf("stage %q has negative duration", name)
		}
	}
	if pipe.StageDuration("partition") == 0 && pipe.StageDuration("map") == 0 {
		t.Error("hot passes recorded no time at all")
	}
	if pipe.StageDuration("no-such-pass") != 0 {
		t.Error("unknown pass reported a duration")
	}
}

// TestCompileCancelled: a dead context aborts before any stage runs.
func TestCompileCancelled(t *testing.T) {
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compile(ctx, g, Options{}); err == nil {
		t.Error("cancelled compile succeeded")
	}
}
