package driver_test

import (
	"context"
	"runtime"
	"testing"

	"streammap/internal/driver"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// maxCompiledBytesPerNode bounds what a held exact-path Compiled keeps live
// per graph node: partitions, PDG, mapping problem, assignment and plan
// (130 B/node in all on the graph below, on a 2-core x86-64 machine under
// go1.24; twice that is the bound). An estimation engine held past the
// partition pass breaks it: its repetition table and its memo, which clones
// every member list the run scored, read 1148 B/node on the same graph.
const maxCompiledBytesPerNode = 260

// TestCompiledRetainedBytes measures the heap a held Compiled keeps live on
// a 2000-filter synthetic graph compiled by the exact partitioner: HeapAlloc
// after a full collection with the Compiled held, minus the same reading
// before the compile.
func TestCompiledRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not comparable under the race detector")
	}
	g, err := synth.BuildGraph(synth.GraphParams{
		Seed: 2000<<16 | 4, Filters: 2000, MaxRate: 8, MaxOps: 512, SkewWork: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Steady(); err != nil {
		t.Fatal(err)
	}
	opts := driver.Options{Topo: topology.PairedTree(4), MultilevelThreshold: driver.MultilevelOff}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := driver.Compile(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perNode := float64(retained) / float64(g.NumNodes())
	t.Logf("%d partitions over %d nodes retain %d B (%.0f B/node)", len(c.Parts.Parts), g.NumNodes(), retained, perNode)
	if perNode > maxCompiledBytesPerNode {
		t.Errorf("a held Compiled retains %.0f B per node, want <= %d", perNode, maxCompiledBytesPerNode)
	}
}
