package synth

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"streammap/internal/driver"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// mlGoldenEntry is what testdata/multilevel_golden.json records per
// instance: the compilation digest and the multilevel provenance line.
type mlGoldenEntry struct {
	Digest string `json:"digest"`
	ML     string `json:"ml"`
}

// multilevelGoldenInstances lists the multilevel compiles the golden file
// pins: TestMultilevelDifferential's four scenarios under the forced
// multilevel path, then the compile-large benchmark graph (10^4 filters) and
// TestMultilevelRetainedBytes' 20 000-filter graph under default options on
// a 4-GPU tree, where the size switch selects the path. The 20 000-filter
// hierarchy's finest level is above DefaultRefineUnitCap, so refinement
// skips it.
func multilevelGoldenInstances(t *testing.T) []goldenInstance {
	t.Helper()
	var out []goldenInstance
	for _, c := range []struct {
		seed          uint64
		filters, gpus int
	}{
		{11, 1000, 2}, {12, 1000, 4}, {13, 2000, 4}, {14, 5000, 4},
	} {
		sc := mlScenario(t, c.seed, c.filters, c.gpus)
		opts := sc.Opts
		opts.Partitioner = driver.MultilevelPart
		out = append(out, goldenInstance{
			name:  fmt.Sprintf("ml-%d-%dx%d", c.seed, c.filters, c.gpus),
			build: sc.BuildGraph,
			opts:  opts,
		})
	}
	for _, filters := range []int{10000, 20000} {
		gp := GraphParams{Seed: uint64(filters)<<16 | 4, Filters: filters, MaxRate: 8, MaxOps: 512, SkewWork: true}
		out = append(out, goldenInstance{
			name:  fmt.Sprintf("synth-%dk", filters/1000),
			build: func() (*sdf.Graph, error) { return BuildGraph(gp) },
			opts:  driver.Options{Topo: topology.PairedTree(4)},
		})
	}
	return out
}

// TestMultilevelGolden holds the multilevel path to
// testdata/multilevel_golden.json: per instance, the digest of the whole
// compilation and the MLStats line (levels, merges, moves, evaluations,
// estimates). A refactor of the multilevel partitioner that means to keep
// every verdict keeps both; a change that means to move a plan says so and
// replaces the entry with what this test prints.
func TestMultilevelGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/multilevel_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]mlGoldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	insts := multilevelGoldenInstances(t)
	if len(want) != len(insts) {
		t.Fatalf("golden file has %d entries for %d instances", len(want), len(insts))
	}
	for _, in := range insts {
		g, err := in.build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := driver.Compile(context.Background(), g, in.opts)
		got := mlGoldenEntry{Digest: compilationDigest(c, err)}
		if err == nil && c.Parts.ML != nil {
			got.ML = c.Parts.ML.String()
		}
		if got != want[in.name] {
			t.Errorf("%s: got %+v, recorded %+v", in.name, got, want[in.name])
		}
	}
}
