package partition_test

import (
	"context"
	"runtime"
	"testing"

	"streammap/internal/gpu"
	"streammap/internal/partition"
	"streammap/internal/pee"
	"streammap/internal/synth"
)

// maxRetainedBytesPerNode bounds what a held multilevel Result keeps live per
// graph node: the partitions' member lists and estimates, plus the caches
// the run leaves on the graph and the engine (54 B/node in all on the graph
// below, on a 2-core x86-64 machine under go1.24). A copied
// graph per partition — an extracted subgraph costs several times its
// member list — or a per-partition structure sized by the whole graph — a
// bitset per partition costs nodes/8 bytes each, O(nodes × partitions) in
// all — breaks it.
const maxRetainedBytesPerNode = 100

// TestMultilevelRetainedBytes measures the heap a multilevel Result keeps
// live on the scaling sweep's 20 000-filter graph: HeapAlloc after a full
// collection with the Result held, minus the same reading before the run.
func TestMultilevelRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not comparable under the race detector")
	}
	g, err := synth.BuildGraph(synth.GraphParams{
		Seed: 20000<<16 | 4, Filters: 20000, MaxRate: 8, MaxOps: 512, SkewWork: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Steady(); err != nil {
		t.Fatal(err)
	}
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := partition.Multilevel(context.Background(), g, eng, partition.MLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perNode := float64(retained) / float64(g.NumNodes())
	t.Logf("%d partitions over %d nodes retain %d B (%.0f B/node)", len(res.Parts), g.NumNodes(), retained, perNode)
	if perNode > maxRetainedBytesPerNode {
		t.Errorf("a held Result retains %.0f B per node, want <= %d", perNode, maxRetainedBytesPerNode)
	}
}
