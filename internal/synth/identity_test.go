package synth

import (
	"fmt"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/sdf"
)

// specDigestAgrees is the identity referee: a graph's Digest and the
// SpecDigest of its wire form are two walks that must produce one value,
// because a library caller keys a compilation by the first and a server
// by the second.
func specDigestAgrees(g *sdf.Graph) error {
	spec := sdf.ExportGraph(g)
	if sdf.SpecDigest(&spec) != g.Digest() {
		return fmt.Errorf("%s: SpecDigest of the exported spec differs from Graph.Digest", g.Name)
	}
	return nil
}

// TestSpecDigestMatchesGraph runs the referee over the differential
// corpus's 200 scenarios and every size of the eight paper apps.
func TestSpecDigestMatchesGraph(t *testing.T) {
	corpus, err := Corpus(CorpusParams{Seed: 0x5EED, Scenarios: corpusSize, MaxFilters: 28, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range corpus {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		if err := specDigestAgrees(g); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
	for _, app := range apps.Registry {
		for _, n := range app.Sizes {
			g, err := apps.BuildGraph(app, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := specDigestAgrees(g); err != nil {
				t.Error(err)
			}
		}
	}
}
