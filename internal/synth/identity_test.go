package synth

import (
	"encoding/hex"
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

// TestIdentityPinned holds the identity of two graphs to values recorded
// before the wire form stopped carrying edge rates. TestSpecDigestMatchesGraph
// proves the spec and graph walks agree; this proves neither moved, so every
// cache key, stored artifact name and fingerprint stays what it was.
func TestIdentityPinned(t *testing.T) {
	des, _ := apps.ByName("DES")
	for _, tc := range []struct {
		build       func() (*sdf.Graph, error)
		digest      string
		fingerprint uint64
	}{
		{func() (*sdf.Graph, error) { return apps.BuildGraph(des, 4) },
			"be93bb3eca6b86385eb7b1805e57df8e356adf396a99ccc59dd5bf2943ba4316", 16791274567862691696},
		{func() (*sdf.Graph, error) { return BuildGraph(GraphParams{Seed: 0xBEEF, Filters: 300, PeekProb: 0.3}) },
			"1e86f12ca56afe18d1649b06a6d1ca53d697a466b50e66fca6aeb1d92efe927a", 2560731059366363568},
	} {
		g, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		d := g.Digest()
		if got := hex.EncodeToString(d[:]); got != tc.digest {
			t.Errorf("%s: Digest %s, pinned %s", g.Name, got, tc.digest)
		}
		if got := g.Fingerprint(); got != tc.fingerprint {
			t.Errorf("%s: Fingerprint %d, pinned %d", g.Name, got, tc.fingerprint)
		}
		spec := sdf.ExportGraph(g)
		if sdf.SpecDigest(&spec) != d {
			t.Errorf("%s: SpecDigest differs from the pinned Digest", g.Name)
		}
	}
}
