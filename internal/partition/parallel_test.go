package partition

import (
	"context"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/gpu"
	"streammap/internal/pee"
)

// TestRunCtxMatchesSerial asserts the chain-parallel, speculatively scored
// run at eight workers commits exactly the one-worker (serial) result on
// real benchmark graphs.
func TestRunCtxMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		app string
		n   int
	}{{"DES", 8}, {"FMRadio", 8}, {"BitonicRec", 8}, {"FFT", 32}} {
		app, ok := apps.ByName(tc.app)
		if !ok {
			t.Fatalf("unknown app %s", tc.app)
		}
		g, err := apps.BuildGraph(app, tc.n)
		if err != nil {
			t.Fatal(err)
		}
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

// TestRunCtxCancelled verifies a cancelled context aborts the run.
func TestRunCtxCancelled(t *testing.T) {
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	if _, err := RunCtx(ctx, g, eng, 4); err == nil {
		t.Error("cancelled run succeeded")
	}
}
