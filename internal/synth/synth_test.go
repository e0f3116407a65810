package synth

import (
	"fmt"
	"sync"
	"testing"

	"streammap/internal/sdf"
)

// TestBuildGraphValid sweeps the parameter space: every generated graph
// must validate, balance, and admit a valid whole-graph schedule (the
// generator's sliding windows are primed with delay tokens, so even peeky
// graphs fire).
func TestBuildGraphValid(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		p := GraphParams{
			Seed:     seed,
			Filters:  int(3 + seed%40),
			MaxWidth: int(2 + seed%4),
			MaxDepth: int(1 + seed%4),
			MaxRate:  int(1 + seed%8),
			SkewWork: seed%2 == 0,
		}
		g, err := BuildGraph(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for _, n := range g.Nodes {
			if r := g.Rep(n.ID); r < 1 {
				t.Errorf("seed %d: node %d fires %d times per iteration", seed, n.ID, r)
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if err := sdf.ValidateSchedule(g, order); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if len(g.InputPorts()) == 0 || len(g.OutputPorts()) == 0 {
			t.Errorf("seed %d: graph lacks primary I/O (%d in, %d out)",
				seed, len(g.InputPorts()), len(g.OutputPorts()))
		}
	}
}

// TestBuildGraphScales: the generator handles thousand-filter graphs (the
// scaling sweep's upper range) without rate or repetition blowup.
func TestBuildGraphScales(t *testing.T) {
	g, err := BuildGraph(GraphParams{Seed: 99, Filters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 1000 {
		t.Errorf("asked for ~2000 filters, got %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	for _, n := range g.Nodes {
		if r := g.Rep(n.ID); r > 1<<24 {
			t.Fatalf("node %d repeats %d times per iteration: rate blowup", n.ID, r)
		}
	}
}

func TestBuildTopologyValid(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		p := TopoParams{Seed: seed, GPUs: int(1 + seed%9), MaxDepth: int(1 + seed%4)}
		tr, err := BuildTopology(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if tr.NumGPUs() != p.GPUs {
			t.Errorf("seed %d: %d GPUs, want %d", seed, tr.NumGPUs(), p.GPUs)
		}
		if tr.NumLinks() != 2*(tr.NumNodes()-1) {
			t.Errorf("seed %d: %d links for %d nodes", seed, tr.NumLinks(), tr.NumNodes())
		}
	}
}

// TestCorpusHermetic is the repeat-run determinism guarantee: the same seed
// must yield the same corpus — same scenario names, graph fingerprints and
// topology keys — whether generated serially or from concurrent goroutines
// (no map-iteration or scheduling order may leak into the output).
func TestCorpusHermetic(t *testing.T) {
	p := CorpusParams{Seed: 0xFEED, Scenarios: 24, MaxFilters: 20}
	const runs = 4
	type snapshot []string

	gen := func() (snapshot, error) {
		corpus, err := Corpus(p)
		if err != nil {
			return nil, err
		}
		var snap snapshot
		for _, sc := range corpus {
			g, err := sc.BuildGraph()
			if err != nil {
				return nil, err
			}
			snap = append(snap, fmt.Sprintf("%s|%x|%s", sc.Name, g.Fingerprint(), sc.Opts.Topo.Key()))
		}
		return snap, nil
	}

	snaps := make([]snapshot, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i], errs[i] = gen()
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	for i := 1; i < runs; i++ {
		if len(snaps[i]) != len(snaps[0]) {
			t.Fatalf("run %d generated %d scenarios, run 0 generated %d", i, len(snaps[i]), len(snaps[0]))
		}
		for j := range snaps[0] {
			if snaps[i][j] != snaps[0][j] {
				t.Fatalf("scenario %d differs between concurrent runs:\n  %s\n  %s", j, snaps[0][j], snaps[i][j])
			}
		}
	}

	// Scenario identity must also be corpus-size invariant (forked seeds):
	// a prefix corpus is a prefix of the full corpus.
	small, err := Corpus(CorpusParams{Seed: p.Seed, Scenarios: 8, MaxFilters: p.MaxFilters})
	if err != nil {
		t.Fatal(err)
	}
	for j, sc := range small {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s|%x|%s", sc.Name, g.Fingerprint(), sc.Opts.Topo.Key())
		if want != snaps[0][j] {
			t.Errorf("scenario %d changes identity with corpus size:\n  %s\n  %s", j, want, snaps[0][j])
		}
	}
}
