package partition

import (
	"context"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/gpu"
	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// appGraph builds one paper app at size n.
func appGraph(t *testing.T, name string, n int) *sdf.Graph {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	g, err := apps.BuildGraph(app, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunCtxMatchesSerial asserts the chain-parallel run at eight workers
// commits exactly the one-worker (serial) result on real benchmark graphs.
func TestRunCtxMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		app string
		n   int
	}{{"DES", 8}, {"FMRadio", 8}, {"BitonicRec", 8}, {"FFT", 32}} {
		g := appGraph(t, tc.app, tc.n)
		prof := pee.ProfileGraph(g, gpu.M2090())
		serial, err := RunCtx(context.Background(), g, pee.NewEngine(g, prof), 1)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.app, err)
		}
		par, err := RunCtx(context.Background(), g, pee.NewEngine(g, prof), 8)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.app, err)
		}
		if len(par.Parts) != len(serial.Parts) {
			t.Fatalf("%s: parallel %d partitions, serial %d", tc.app, len(par.Parts), len(serial.Parts))
		}
		if par.CountAfterPhase != serial.CountAfterPhase {
			t.Errorf("%s: phase trace %v != %v", tc.app, par.CountAfterPhase, serial.CountAfterPhase)
		}
		for i := range par.Parts {
			if !par.Parts[i].Set.Equal(serial.Parts[i].Set) {
				t.Errorf("%s: partition %d differs: %v vs %v",
					tc.app, i, par.Parts[i].Set, serial.Parts[i].Set)
			}
		}
		if pt, st := par.TotalTWus(), serial.TotalTWus(); pt != st {
			t.Errorf("%s: total TW %v != %v", tc.app, pt, st)
		}
	}
}

// TestWorkersAddNoWork: a wider pool asks the engine nothing the serial scan
// does not ask. Phase 1's chains are node-disjoint, so no two workers ever
// score the same set and the counts are exact at any width.
func TestWorkersAddNoWork(t *testing.T) {
	for _, tc := range []struct {
		app string
		n   int
	}{{"DES", 32}, {"FMRadio", 32}, {"DCT", 30}, {"BitonicRec", 64}} {
		g := appGraph(t, tc.app, tc.n)
		prof := pee.ProfileGraph(g, gpu.M2090())
		var stats [2]pee.Stats
		for i, workers := range []int{1, 8} {
			eng := pee.NewEngine(g, prof)
			if _, err := RunCtx(context.Background(), g, eng, workers); err != nil {
				t.Fatalf("%s-%d workers=%d: %v", tc.app, tc.n, workers, err)
			}
			stats[i] = eng.Stats()
		}
		if stats[0] != stats[1] {
			t.Errorf("%s-%d: 8 workers left the engine at %v, 1 worker at %v", tc.app, tc.n, stats[1], stats[0])
		}
	}
}

// TestRunCtxCancelled verifies a cancelled context aborts the run.
func TestRunCtxCancelled(t *testing.T) {
	g := appGraph(t, "DES", 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	if _, err := RunCtx(ctx, g, eng, 4); err == nil {
		t.Error("cancelled run succeeded")
	}
}
