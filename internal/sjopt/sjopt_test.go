package sjopt

import (
	"context"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func pseudo(n int64, mod int) []sdf.Token {
	out := make([]sdf.Token, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		out[i] = sdf.Token((state >> 33) % uint64(mod))
	}
	return out
}

func TestEliminateCountsFFT(t *testing.T) {
	app, _ := apps.ByName("FFT")
	g, err := apps.BuildGraph(app, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Eliminate(g)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "FFT only has one splitter and one joiner".
	if st.Splitters != 1 || st.Joiners != 1 {
		t.Errorf("FFT elimination: %d splitters %d joiners, want 1/1", st.Splitters, st.Joiners)
	}
}

func TestEliminateCountsBitonicRec(t *testing.T) {
	app, _ := apps.ByName("BitonicRec")
	g, err := apps.BuildGraph(app, 32)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Eliminate(g)
	if err != nil {
		t.Fatal(err)
	}
	if st.Splitters < 10 || st.Joiners < 10 {
		t.Errorf("BitonicRec should have many splitters/joiners, got %d/%d", st.Splitters, st.Joiners)
	}
}

func TestEliminationPreservesFunctionality(t *testing.T) {
	app, _ := apps.ByName("BitonicRec")
	g, err := apps.BuildGraph(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	enh, _, err := Eliminate(g)
	if err != nil {
		t.Fatal(err)
	}
	in := pseudo(16*2, 100)
	run := func(gr *sdf.Graph) []sdf.Token {
		it, err := sdf.NewInterp(gr)
		if err != nil {
			t.Fatal(err)
		}
		out, err := it.Run(2, [][]sdf.Token{in})
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	a, b := run(g), run(enh)
	if len(a) != len(b) {
		t.Fatalf("output lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("token %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEliminationReducesProfiledCost(t *testing.T) {
	app, _ := apps.ByName("BitonicRec")
	g, err := apps.BuildGraph(app, 32)
	if err != nil {
		t.Fatal(err)
	}
	enh, _, err := Eliminate(g)
	if err != nil {
		t.Fatal(err)
	}
	d := gpu.M2090()
	orig := pee.ProfileGraph(g, d)
	opt := pee.ProfileGraph(enh, d)
	var before, after float64
	for i := range orig.PerFiringCycles {
		before += orig.PerFiringCycles[i] * float64(g.Rep(sdf.NodeID(i)))
		after += opt.PerFiringCycles[i] * float64(enh.Rep(sdf.NodeID(i)))
	}
	if after >= before {
		t.Errorf("elimination did not reduce profiled cost: %v -> %v", before, after)
	}
}

func TestEliminationSpeedsUpSingleGPU(t *testing.T) {
	// The Table 5.1 effect: the enhanced version beats the original on one
	// GPU for split/join-heavy graphs.
	app, _ := apps.ByName("BitonicRec")
	g, err := apps.BuildGraph(app, 32)
	if err != nil {
		t.Fatal(err)
	}
	enh, _, err := Eliminate(g)
	if err != nil {
		t.Fatal(err)
	}
	perFrag := func(gr *sdf.Graph) float64 {
		c, err := driver.Compile(context.Background(), gr, driver.Options{Topo: topology.PairedTree(1)})
		if err != nil {
			t.Fatal(err)
		}
		in := pseudo(c.InputNeed(0, 8), 100)
		res, err := c.Execute([][]sdf.Token{in}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerFragmentUS
	}
	tOrig, tEnh := perFrag(g), perFrag(enh)
	if tEnh >= tOrig {
		t.Errorf("enhanced version (%v us) not faster than original (%v us)", tEnh, tOrig)
	}
}
