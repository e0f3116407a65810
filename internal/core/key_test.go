package core

import (
	"context"
	"testing"
	"time"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func hashOf(t *testing.T, g *sdf.Graph, opts driver.Options) string {
	t.Helper()
	hash, err := HashOf(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if key, _ := KeyOf(g, opts); KeyHash(key) != hash {
		t.Fatalf("HashOf %s disagrees with KeyHash(KeyOf) %s", hash, KeyHash(key))
	}
	// The server's derivation, from the wire form alone, is the same key.
	spec := sdf.ExportGraph(g)
	ob, err := OptionsKey(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fromSpec := HashOfSpec(&spec, ob); fromSpec != hash {
		t.Fatalf("HashOfSpec %s disagrees with HashOf %s", fromSpec, hash)
	}
	return hash
}

// TestHashOfSpecMatchesHashOf: a library caller keys by the graph, a server
// by the request's spec and imported options; for zero-value options, their
// explicit-default twin and the options as they come back off the wire, all
// of them must name one compilation.
func TestHashOfSpecMatchesHashOf(t *testing.T) {
	app, _ := apps.ByName("FMRadio")
	g, err := apps.BuildGraph(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	zero := driver.Options{Topo: topology.PairedTree(2)}
	want := hashOf(t, g, zero)
	if hashOf(t, g, driver.Normalized(zero)) != want {
		t.Error("explicit defaults key differently from the zero value")
	}
	wire, err := driver.ImportOptions(driver.ExportOptions(zero))
	if err != nil {
		t.Fatal(err)
	}
	if hashOf(t, g, wire) != want {
		t.Error("options that crossed the wire key differently")
	}
}

// TestKeyHashSensitivity: the one cache identity moves with the graph's
// structure (through sdf.Graph.Digest, whose own field-by-field table is
// sdf's TestIdentitySensitivity) and with every option that changes the
// result — and with nothing else: Workers and explicit defaults do not
// split it.
func TestKeyHashSensitivity(t *testing.T) {
	app, _ := apps.ByName("DES")
	build := func(n int) *sdf.Graph {
		g, err := apps.BuildGraph(app, n)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := build(8)
	base := driver.Options{Topo: topology.PairedTree(2)}
	want := hashOf(t, g, base)

	if hashOf(t, build(8), base) != want {
		t.Error("a rebuilt, structurally identical graph keys differently")
	}
	same := base
	same.Workers, same.FragmentIters = 3, 512
	if hashOf(t, g, same) != want {
		t.Error("Workers or an explicit default split the key")
	}
	if hashOf(t, build(4), base) == want {
		t.Error("a different graph shares the key")
	}
	renamed := build(8)
	renamed.Name += "'"
	if hashOf(t, renamed, base) == want {
		t.Error("a renamed graph shares the key")
	}

	slower := gpu.M2090()
	slower.NumSMs--
	for name, mutate := range map[string]func(*driver.Options){
		"device":               func(o *driver.Options) { o.Device = slower },
		"topology":             func(o *driver.Options) { o.Topo = topology.PairedTree(4) },
		"fragment iters":       func(o *driver.Options) { o.FragmentIters = 64 },
		"partitioner":          func(o *driver.Options) { o.Partitioner = driver.SinglePart },
		"mapper":               func(o *driver.Options) { o.Mapper = driver.PrevWorkMap },
		"ilp max parts":        func(o *driver.Options) { o.MapOptions = mapping.Options{ILPMaxParts: 3} },
		"ilp budget":           func(o *driver.Options) { o.MapOptions = mapping.Options{TimeBudget: time.Second} },
		"force ilp":            func(o *driver.Options) { o.MapOptions = mapping.Options{ForceILP: true} },
		"multilevel threshold": func(o *driver.Options) { o.MultilevelThreshold = driver.MultilevelOff },
	} {
		o := base
		mutate(&o)
		if hashOf(t, g, o) == want {
			t.Errorf("%s does not enter the key", name)
		}
	}
}

// TestMemoryHitAllocations pins what a known key costs once it is in the
// table: the graph's digest is memoized, so deriving the key is the options
// marshal and two hashes, and the lookup itself allocates nothing — a hit
// is O(options), never O(graph).
func TestMemoryHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s := NewService(ServiceConfig{})
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 32)
	if err != nil {
		t.Fatal(err)
	}
	opts, ctx := serviceOpts(2), context.Background()
	if _, err := s.Compile(ctx, g, opts); err != nil {
		t.Fatal(err)
	}
	hash := hashOf(t, g, opts)

	source := func() (*sdf.Graph, error) { return g, nil }
	if n := testing.AllocsPerRun(200, func() { s.Encoded(ctx, hash, source, opts) }); n > 1 {
		t.Errorf("a table hit with the key in hand allocates %.0f times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.Compile(ctx, g, opts) }); n > 9 {
		t.Errorf("a table hit through Compile (key derivation included) allocates %.0f times, want single digits", n)
	}
	if st := s.Stats(); st.Misses != 1 || st.Encodes != 1 {
		t.Errorf("hits recompiled or re-encoded: %+v", st)
	}
}
