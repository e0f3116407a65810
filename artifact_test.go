package streammap

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"streammap/internal/driver"
)

// TestArtifactQuickstart exercises the public artifact surface end to end,
// exactly as the package comment advertises: compile, export, encode,
// decode, execute without recompiling, and warm-start a service from disk.
func TestArtifactQuickstart(t *testing.T) {
	g, err := Flatten("toy", quickstartProgram())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g, Options{Topo: PairedTree(2)})
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
	b, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Format != ArtifactFormatVersion {
		t.Errorf("decoded format %d, want %d", b.Format, ArtifactFormatVersion)
	}
	if b.Fingerprint != g.Fingerprint() {
		t.Errorf("artifact fingerprint %016x != graph %016x", b.Fingerprint, g.Fingerprint())
	}
	res, err := Execute(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerFragmentUS <= 0 {
		t.Errorf("decoded execution per-fragment %v", res.PerFragmentUS)
	}

	// Two-tier service: a second service over the same directory serves the
	// graph without compiling.
	dir := t.TempDir()
	ctx := context.Background()
	s1 := NewService(ServiceConfig{CacheDir: dir})
	if _, err := s1.Compile(ctx, g, Options{Topo: PairedTree(2)}); err != nil {
		t.Fatal(err)
	}
	// The disk write happens off the compile critical path; rendezvous with
	// it before starting the second service.
	for deadline := time.Now().Add(10 * time.Second); s1.Stats().DiskWrites == 0; {
		if s1.Stats().DiskErrors > 0 || time.Now().After(deadline) {
			t.Fatalf("artifact never reached disk: %+v", s1.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	s2 := NewService(ServiceConfig{CacheDir: dir})
	warm, err := s2.Compile(ctx, g, Options{Topo: PairedTree(2)})
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm start stats %+v", st)
	}
	if len(warm.Stages) != 0 {
		t.Errorf("disk-served result ran pipeline stages: %v", warm.Stages)
	}
}

// goldenArtifact decodes the checked-in format-stability artifact (DES-4 on
// two GPUs; see internal/artifact's TestGoldenArtifactDecodes).
func goldenArtifact(t *testing.T) *Artifact {
	t.Helper()
	data, err := os.ReadFile("internal/artifact/testdata/des4x2.artifact.json")
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decoding golden artifact: %v", err)
	}
	return a
}

// TestGoldenArtifactExecutes: the checked-in artifact, written by an
// earlier build, must keep executing without recompiling.
func TestGoldenArtifactExecutes(t *testing.T) {
	res, err := Execute(goldenArtifact(t), 16)
	if err != nil {
		t.Fatalf("executing golden artifact: %v", err)
	}
	if res.PerFragmentUS <= 0 || res.MakespanUS <= 0 {
		t.Errorf("golden execution produced non-positive timing: %+v", res.PerFragmentUS)
	}
}

func TestExecuteRejectsFingerprintMismatch(t *testing.T) {
	a := goldenArtifact(t)
	a.Fingerprint++
	if _, err := Execute(a, 4); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch not caught: %v", err)
	}
}

// TestExecuteCancellable: even a tiny simulation of a rehydrated artifact
// (far fewer than one cancellation-check window of events) must notice an
// already-cancelled context.
func TestExecuteCancellable(t *testing.T) {
	c, err := driver.Rehydrate(goldenArtifact(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := make([]Token, c.InputNeed(0, 4))
	if _, err := c.ExecuteCtx(ctx, [][]Token{in}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled execution returned %v, want context.Canceled", err)
	}
}
