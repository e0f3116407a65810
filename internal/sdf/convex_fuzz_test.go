package sdf_test

import (
	"math/rand"
	"testing"

	"streammap/internal/sdf"
	"streammap/internal/synth"
)

// FuzzIsConvex holds ConvexChecker.IsConvex, the rank-bounded forward
// search, to TwoSidedConvex, the unbounded two-sided search it replaced, on
// random connected member sets. The graphs are synth graphs; with loops > 0
// that many feedback loops, each with a delayed back edge, are spliced
// between generated streams, so the graph is cyclic and every loop has
// nodes ranked below and above it.
func FuzzIsConvex(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0), int64(7))
	f.Add(uint64(2), uint8(6), uint8(1), int64(3))
	f.Add(uint64(3), uint8(20), uint8(2), int64(11))
	f.Add(uint64(0xBEEF), uint8(40), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, seed uint64, filters, loops uint8, draw int64) {
		g := loopedGraph(t, seed, 2+int(filters%48), int(loops%3))
		r := rand.New(rand.NewSource(draw))
		checker := g.NewConvexChecker()
		for range 64 {
			set := connectedSet(r, g)
			if got, want := checker.IsConvex(set), sdf.TwoSidedConvex(g, set); got != want {
				t.Fatalf("%s, set %v: IsConvex = %v, the two-sided search says %v", g.Name, set, got, want)
			}
		}
	})
}

// loopedGraph is synth graph seed with loops feedback loops spliced in, each
// after a generated stream of its own seed, and one more stream at the end.
func loopedGraph(t *testing.T, seed uint64, filters, loops int) *sdf.Graph {
	t.Helper()
	stream := func(i int) sdf.Stream {
		return synth.BuildStream(synth.GraphParams{Seed: seed + uint64(i), Filters: filters})
	}
	parts := []sdf.Stream{stream(0)}
	for i := 1; i <= loops; i++ {
		loop := sdf.LoopOf("loop", sdf.RoundRobinJoiner([]int{1, 1}),
			sdf.Pipe("body", sdf.F(sdf.Identity(2)), sdf.F(sdf.Identity(2))),
			sdf.RoundRobinSplitter([]int{1, 1}), sdf.F(sdf.Identity(1)), []sdf.Token{0})
		parts = append(parts, loop, stream(i))
	}
	g, err := sdf.Flatten("looped", sdf.Pipe("top", parts...))
	if err != nil {
		t.Skip(err) // a draw whose repetition vector does not fit
	}
	return g
}

// connectedSet grows a weakly connected set from a random node: each step
// adds a random neighbour of a random member, up to a random size.
func connectedSet(r *rand.Rand, g *sdf.Graph) sdf.NodeSet {
	n := g.NumNodes()
	set := sdf.NewNodeSet(n)
	members := []sdf.NodeID{sdf.NodeID(r.Intn(n))}
	set.Add(members[0])
	for range r.Intn(n) {
		m := members[r.Intn(len(members))]
		next := append(append([]sdf.NodeID(nil), g.Succ(m)...), g.Pred(m)...)
		if len(next) == 0 {
			continue
		}
		if v := next[r.Intn(len(next))]; !set.Has(v) {
			set.Add(v)
			members = append(members, v)
		}
	}
	return set
}
