// Property tests for the multilevel coarsening hierarchy (external test
// package: the graphs come from the synth generator, which lives above
// partition in the import order).
package partition_test

import (
	"context"
	"testing"

	"streammap/internal/gpu"
	"streammap/internal/partition"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/synth"
)

func synthGraph(t *testing.T, seed uint64, filters int) *sdf.Graph {
	t.Helper()
	g, err := synth.BuildGraph(synth.GraphParams{Seed: seed, Filters: filters, MaxOps: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Steady(); err != nil {
		t.Fatal(err)
	}
	return g
}

func gcd64t(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TestCoarseningPreservesInvariants checks, at every level of the hierarchy:
// exact cover (each node in exactly one unit, units consistent with the
// previous level through Parent), per-unit scale = gcd of member repetition
// counts, total work conservation, and IO-byte conservation — the bytes on
// intra-unit edges equal the sum of per-unit internal bytes, so internal +
// cross always re-aggregates to the graph's total edge bytes.
func TestCoarseningPreservesInvariants(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		filters int
	}{
		{1, 200}, {2, 1500}, {3, 12000},
	} {
		g := synthGraph(t, tc.seed, tc.filters)
		c, err := partition.BuildCoarsening(g, partition.CoarsenOptions{}, 0)
		if err != nil {
			t.Fatalf("filters=%d: %v", tc.filters, err)
		}
		N := g.NumNodes()

		var totalWork, totalBytes int64
		for _, n := range g.Nodes {
			totalWork += g.Rep(n.ID) * n.Filter.Ops
		}
		for _, e := range g.Edges {
			totalBytes += g.EdgeBytes(e)
		}

		for li, lvl := range c.Levels {
			if len(lvl.UnitOf) != N {
				t.Fatalf("filters=%d level %d: UnitOf covers %d of %d nodes", tc.filters, li, len(lvl.UnitOf), N)
			}
			if li > 0 {
				prev := c.Levels[li-1]
				if len(lvl.Parent) != prev.NumUnits {
					t.Fatalf("filters=%d level %d: Parent maps %d of %d finer units", tc.filters, li, len(lvl.Parent), prev.NumUnits)
				}
				for n := 0; n < N; n++ {
					if lvl.UnitOf[n] != lvl.Parent[prev.UnitOf[n]] {
						t.Fatalf("filters=%d level %d: node %d unit %d != Parent[%d]=%d",
							tc.filters, li, n, lvl.UnitOf[n], prev.UnitOf[n], lvl.Parent[prev.UnitOf[n]])
					}
				}
			}

			seen := 0
			var work, internal int64
			for u := 0; u < lvl.NumUnits; u++ {
				mem := lvl.Members(u)
				if len(mem) == 0 {
					t.Fatalf("filters=%d level %d: unit %d empty", tc.filters, li, u)
				}
				if len(mem) != lvl.UnitNodeCount(u) {
					t.Fatalf("filters=%d level %d: unit %d has %d members, counts %d",
						tc.filters, li, u, len(mem), lvl.UnitNodeCount(u))
				}
				var sc int64
				for i, n := range mem {
					if i > 0 && mem[i-1] >= n {
						t.Fatalf("filters=%d level %d: unit %d members not ascending", tc.filters, li, u)
					}
					if lvl.UnitOf[n] != int32(u) {
						t.Fatalf("filters=%d level %d: member %d of unit %d maps to unit %d",
							tc.filters, li, n, u, lvl.UnitOf[n])
					}
					sc = gcd64t(sc, g.Rep(n))
					work += g.Rep(n) * g.Nodes[n].Filter.Ops
				}
				seen += len(mem)
				if got := lvl.UnitScale(u); got != sc {
					t.Fatalf("filters=%d level %d: unit %d scale %d, want gcd %d", tc.filters, li, u, got, sc)
				}
				internal += lvl.UnitInternalBytes(u)
			}
			if seen != N {
				t.Fatalf("filters=%d level %d: units cover %d of %d nodes", tc.filters, li, seen, N)
			}
			if work != totalWork {
				t.Fatalf("filters=%d level %d: total work %d, want %d", tc.filters, li, work, totalWork)
			}

			var intra, cross int64
			for _, e := range g.Edges {
				if lvl.UnitOf[e.Src] == lvl.UnitOf[e.Dst] {
					intra += g.EdgeBytes(e)
				} else {
					cross += g.EdgeBytes(e)
				}
			}
			if internal != intra {
				t.Fatalf("filters=%d level %d: unit internal bytes %d, intra-unit edges carry %d",
					tc.filters, li, internal, intra)
			}
			if internal+cross != totalBytes {
				t.Fatalf("filters=%d level %d: internal %d + cross %d != total %d",
					tc.filters, li, internal, cross, totalBytes)
			}
		}

		if got := c.Coarsest().NumUnits; len(c.Levels) > 1 && got >= c.Levels[0].NumUnits {
			t.Fatalf("filters=%d: coarsening did not shrink (%d -> %d units)",
				tc.filters, c.Levels[0].NumUnits, got)
		}
	}
}

// TestCoarseningUnitsConvexConnected spot-checks that every supernode is a
// convex, connected subgraph of the original graph — the structural property
// that lets quotient-level reasoning stand in for node-level reasoning.
func TestCoarseningUnitsConvexConnected(t *testing.T) {
	g := synthGraph(t, 7, 900)
	c, err := partition.BuildCoarsening(g, partition.CoarsenOptions{CoreSize: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for li, lvl := range c.Levels {
		for u := 0; u < lvl.NumUnits; u++ {
			set := sdf.NewNodeSet(g.NumNodes())
			for _, n := range lvl.Members(u) {
				set.Add(n)
			}
			if !g.IsConnected(set) {
				t.Fatalf("level %d unit %d not connected", li, u)
			}
			if !g.IsConvex(set) {
				t.Fatalf("level %d unit %d not convex", li, u)
			}
		}
	}
}

// TestMultilevelRestoresNodeSet: uncoarsening must hand back every original
// node exactly once — the union of the result's partition member lists is
// bit-for-bit the full node set.
func TestMultilevelRestoresNodeSet(t *testing.T) {
	g := synthGraph(t, 9, 3000)
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	res, err := partition.Multilevel(context.Background(), g, eng, partition.MLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ML == nil {
		t.Fatal("multilevel result carries no MLStats")
	}
	full := sdf.NewNodeSet(g.NumNodes())
	for _, n := range g.Nodes {
		full.Add(n.ID)
	}
	union := sdf.NewNodeSet(g.NumNodes())
	total := 0
	for i, p := range res.Parts {
		for _, n := range p.Members {
			if union.Has(n) {
				t.Fatalf("partition %d overlaps an earlier one", i)
			}
			union.Add(n)
		}
		total += len(p.Members)
	}
	if !union.Equal(full) || total != g.NumNodes() {
		t.Fatalf("union of %d partitions covers %d of %d nodes and differs from the full set",
			len(res.Parts), total, g.NumNodes())
	}
}

// TestMultilevelCancelledContext: a cancelled context aborts both the exact
// path and the multilevel path before they commit to long merge scans (the
// regression for the in-loop cancellation checks).
func TestMultilevelCancelledContext(t *testing.T) {
	g := synthGraph(t, 5, 400)
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := partition.Multilevel(ctx, g, eng, partition.MLOptions{}); err == nil {
		t.Error("Multilevel ran to completion under a cancelled context")
	}
	if _, err := partition.RunCtx(ctx, g, eng, 1); err == nil {
		t.Error("RunCtx ran to completion under a cancelled context")
	}
}
