package partition_test

import (
	"cmp"
	"slices"
	"testing"

	"streammap/internal/partition"
	"streammap/internal/sdf"
	"streammap/internal/synth"
)

// TestLevelQuotientsMatchGraph holds the quotient each coarsening level
// stores — built once with the level, from the level below — to one the
// test aggregates from the graph's own edges through UnitOf: the same
// successor CSR (targets ascending, bytes summed per pair), the same
// predecessor CSR (sources ascending), a topological position that is a
// permutation increasing along every edge, and per-unit internal bytes equal
// to the intra-unit edges' bytes. It covers every level of the two graphs
// the closure referee cuts and of the 10^5-filter coarsening benchmark graph,
// and crossedGraph: the synth graphs list each node's channels by ascending
// target and join no two units twice, so on them alone the pair sums and the
// by-target order would go unchecked.
func TestLevelQuotientsMatchGraph(t *testing.T) {
	big, err := synth.BuildGraph(synth.GraphParams{
		Seed: 100000<<16 | 4, Filters: 100000, MaxRate: 8, MaxOps: 512, SkewWork: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Steady(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		g         *sdf.Graph
		opts      partition.CoarsenOptions
		minLevels int
	}{
		{"seed 21", synthGraph(t, 21, 600), partition.CoarsenOptions{CoreSize: 32}, 3},
		{"seed 22", synthGraph(t, 22, 900), partition.CoarsenOptions{CoreSize: 32}, 3},
		{"1e5 filters", big, partition.CoarsenOptions{}, 3},
		{"crossed", crossedGraph(t), partition.CoarsenOptions{}, 1},
	} {
		c, err := partition.BuildCoarsening(tc.g, tc.opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Levels) < tc.minLevels {
			t.Errorf("%s: %d levels, want at least %d", tc.name, len(c.Levels), tc.minLevels)
		}
		for li, lvl := range c.Levels {
			checkLevelQuotient(t, tc.g, lvl, tc.name, li)
		}
		t.Logf("%s: %d levels, %d to %d units", tc.name, len(c.Levels), c.Levels[0].NumUnits, c.Coarsest().NumUnits)
	}
}

// crossedGraph is three filters numbered against the stream: a source (id 2)
// feeds a sink (id 0) on two parallel channels and a filter (id 1) between
// them, in that order, so the source's channels name targets 0, 1, 0.
func crossedGraph(t *testing.T) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("crossed")
	in := sdf.InRate{Pop: 1, Peek: 1}
	sink := b.AddNode(&sdf.Filter{Name: "sink", Inputs: []sdf.InRate{in, in, in}, Ops: 8}, -1)
	mid := b.AddNode(&sdf.Filter{Name: "mid", Inputs: []sdf.InRate{in}, Outputs: []int{1}, Ops: 8}, -1)
	src := b.AddNode(&sdf.Filter{Name: "src", Outputs: []int{1, 1, 1}, Ops: 8}, -1)
	b.Connect(src, 0, sink, 0)
	b.Connect(src, 1, mid, 0)
	b.Connect(src, 2, sink, 1)
	b.Connect(mid, 0, sink, 2)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkLevelQuotient(t *testing.T, g *sdf.Graph, lvl *partition.CoarseLevel, name string, li int) {
	t.Helper()
	U := lvl.NumUnits
	type edge struct {
		from, to int32
		b        int64
	}
	var cross []edge
	internal := make([]int64, U)
	for _, e := range g.Edges {
		a, b := lvl.UnitOf[e.Src], lvl.UnitOf[e.Dst]
		if a == b {
			internal[a] += g.EdgeBytes(e)
		} else {
			cross = append(cross, edge{a, b, g.EdgeBytes(e)})
		}
	}
	slices.SortFunc(cross, func(x, y edge) int { return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.to, y.to)) })
	var pairs []edge
	for _, e := range cross {
		if n := len(pairs); n > 0 && pairs[n-1].from == e.from && pairs[n-1].to == e.to {
			pairs[n-1].b += e.b
		} else {
			pairs = append(pairs, e)
		}
	}
	wantSuccOff, wantPredOff := make([]int32, U+1), make([]int32, U+1)
	wantSuccTo, wantSuccB := make([]int32, len(pairs)), make([]int64, len(pairs))
	for i, p := range pairs {
		wantSuccOff[p.from+1]++
		wantPredOff[p.to+1]++
		wantSuccTo[i], wantSuccB[i] = p.to, p.b
	}
	for u := 1; u <= U; u++ {
		wantSuccOff[u] += wantSuccOff[u-1]
		wantPredOff[u] += wantPredOff[u-1]
	}
	byTo := slices.Clone(pairs)
	slices.SortFunc(byTo, func(x, y edge) int { return cmp.Or(cmp.Compare(x.to, y.to), cmp.Compare(x.from, y.from)) })
	wantPredFrom := make([]int32, len(byTo))
	for i, p := range byTo {
		wantPredFrom[i] = p.from
	}

	succOff, succTo, succB, predOff, predFrom, topoPos := lvl.QuotientCSR()
	for _, c := range []struct {
		what      string
		got, want []int32
	}{
		{"successor offsets", succOff, wantSuccOff},
		{"successor targets", succTo, wantSuccTo},
		{"predecessor offsets", predOff, wantPredOff},
		{"predecessor sources", predFrom, wantPredFrom},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s level %d: %s differ from the graph's (%d vs %d entries)", name, li, c.what, len(c.got), len(c.want))
		}
	}
	if !slices.Equal(succB, wantSuccB) {
		t.Errorf("%s level %d: successor bytes differ from the graph's summed pair bytes", name, li)
	}

	seen := make([]bool, U)
	for u, pos := range topoPos {
		if pos < 0 || int(pos) >= U || seen[pos] {
			t.Fatalf("%s level %d: topoPos is not a permutation of %d units (unit %d at %d)", name, li, U, u, pos)
		}
		seen[pos] = true
	}
	if len(topoPos) != U {
		t.Fatalf("%s level %d: topoPos covers %d of %d units", name, li, len(topoPos), U)
	}
	for _, p := range pairs {
		if topoPos[p.from] >= topoPos[p.to] {
			t.Fatalf("%s level %d: edge %d->%d runs from position %d back to %d", name, li, p.from, p.to, topoPos[p.from], topoPos[p.to])
		}
	}
	for u := range U {
		if got := lvl.UnitInternalBytes(u); got != internal[u] {
			t.Fatalf("%s level %d unit %d: internal bytes %d, intra-unit edges carry %d", name, li, u, got, internal[u])
		}
	}
}
