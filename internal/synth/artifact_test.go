package synth

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/gpusim"
)

// TestArtifactBytesDeterministic: a key determines its bytes. Every instance
// of the serial golden family (the paper apps at the benchmark's sizes, the
// 200-scenario 0x5EED corpus) is compiled at Workers 1, 2 and 8, each time
// on a twin graph built afresh, while GOMAXPROCS-many goroutines spin so the
// scheduler preempts the compile's workers wherever it likes. The encodings
// of one instance must share one SHA-256 across all three runs — a rejected
// instance, one error text — and rehydrating an encoding (Decode →
// FromArtifact on yet another twin → Artifact → Encode) must give the same
// bytes back. CI repeats it under -cpu 1,2 -count=5 -shuffle=on.
func TestArtifactBytesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus determinism in -short mode")
	}
	insts := serialGoldenInstances(t)

	stop := make(chan struct{})
	var hogs sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	defer hogs.Wait()
	defer close(stop)

	// encoded compiles in on a fresh twin and returns the encoding's digest
	// (or the rejection) after holding it to the rehydration round trip.
	encoded := func(in goldenInstance, workers int) string {
		g, err := in.build()
		if err != nil {
			t.Fatal(err)
		}
		opts := in.opts
		opts.Workers = workers
		c, err := driver.Compile(context.Background(), g, opts)
		if err != nil {
			return "error: " + err.Error()
		}
		a, err := c.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		data, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)

		twin, err := in.build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := artifact.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		rc, err := driver.FromArtifact(twin, b, opts)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		ra, err := rc.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		again, err := ra.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s workers=%d: rehydrated artifact re-encodes differently: %v", in.name, workers, artifact.Equal(a, ra))
		}
		return hex.EncodeToString(sum[:])
	}

	// Which instances compile at all is TestSerialGolden's to pin.
	for _, in := range insts {
		want := encoded(in, 1)
		for _, workers := range []int{2, 8} {
			if got := encoded(in, workers); got != want {
				t.Errorf("%s: workers=%d encodes to %s, workers=1 to %s", in.name, workers, got, want)
			}
		}
	}
}

// TestArtifactRoundTripCorpus widens the artifact round-trip contract from
// the six paper apps to a 50-scenario generated corpus: for every scenario,
// DecodeArtifact(Encode(c.Artifact())) must be Equivalent — at artifact
// level and after rehydration — and the plan driver.Rehydrate lowers over
// the embedded structural twin must simulate to bit-identical throughput.
func TestArtifactRoundTripCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus round trip in -short mode")
	}
	scenarios, err := Corpus(CorpusParams{Seed: 0xA27, Scenarios: 50, MaxFilters: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			g, err := sc.BuildGraph()
			if err != nil {
				t.Fatal(err)
			}
			c, err := driver.Compile(context.Background(), g, sc.Opts)
			if err != nil {
				t.Fatal(err)
			}
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
			if err := driver.EquivalentArtifacts(a, b); err != nil {
				t.Fatalf("artifact round trip differs: %v", err)
			}
			rc, err := driver.FromArtifact(g, b, sc.Opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := driver.Equivalent(c, rc); err != nil {
				t.Fatalf("rehydrated compilation differs: %v", err)
			}
			const fragments = 12
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
