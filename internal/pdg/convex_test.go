package pdg_test

import (
	"math/rand"
	"strings"
	"testing"

	"streammap/internal/partition"
	"streammap/internal/pdg"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/synth"
)

// TestAcyclicQuotientImpliesConvex is the referee for the argument that lets
// pdg.Build's acyclic-quotient check stand in for a per-partition convexity
// walk: if a partition were not convex, a path would leave it and come back,
// and that path is a cycle in the quotient. Over synth graphs — half of them
// with a feedback loop spliced in — it draws partitionings as contiguous
// cuts of a topological order (convex by construction, unless a cut splits
// the loop) with a few nodes then moved to random partitions or swapped
// between two, and holds
// every partitioning Build accepts to sdf's ConvexChecker, part by part.
//
// The converse does not hold, and the counts record it: some rejected
// partitionings have every part convex on its own (two parts that each
// straddle the other, say), so the quotient check is strictly the stronger.
func TestAcyclicQuotientImpliesConvex(t *testing.T) {
	r := rand.New(rand.NewSource(0xC0DE))
	var accepted, rejected, rejectedAllConvex int
	for seed := uint64(1); seed <= 100; seed++ {
		g := quotientGraph(t, seed)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		checker := g.NewConvexChecker()
		for trial := 0; trial < 40; trial++ {
			owner := topoCut(r, order, 2+r.Intn(min(n-1, 6)))
			for moves := r.Intn(3); moves > 0; moves-- {
				// A move, or a swap of two nodes' owners.
				if x, y := r.Intn(n), r.Intn(n); r.Intn(2) == 0 {
					owner[x] = r.Intn(maxOf(owner) + 1)
				} else {
					owner[x], owner[y] = owner[y], owner[x]
				}
			}
			parts, sets := partsOf(g, owner)
			_, err := pdg.Build(g, parts)
			allConvex := true
			for _, set := range sets {
				allConvex = allConvex && checker.IsConvex(set)
			}
			switch {
			case err == nil:
				accepted++
				if !allConvex {
					t.Fatalf("graph %d, owners %v: the quotient is acyclic but a part is not convex", seed, owner)
				}
			case !strings.Contains(err.Error(), "cycle"):
				t.Fatalf("graph %d, owners %v: %v", seed, owner, err)
			default:
				rejected++
				if allConvex {
					rejectedAllConvex++
				}
			}
		}
	}
	t.Logf("accepted %d, rejected %d (%d with every part convex)", accepted, rejected, rejectedAllConvex)
	if accepted < 1000 || rejected < 1000 || rejectedAllConvex < 6 {
		t.Errorf("coverage lost: accepted %d (want ≥ 1000), rejected %d (want ≥ 1000), rejected with every part convex %d (want ≥ 6)",
			accepted, rejected, rejectedAllConvex)
	}
}

// quotientGraph is synth graph seed; even seeds get a feedback loop spliced
// in after the generated stream, primed with one steady iteration's tokens.
func quotientGraph(t *testing.T, seed uint64) *sdf.Graph {
	t.Helper()
	p := synth.GraphParams{Seed: seed, Filters: 4 + int(seed%10)}
	g, err := sdf.Flatten("quotient", synth.BuildStream(p))
	if err == nil && seed%2 == 0 {
		if err = g.Steady(); err != nil {
			t.Fatal(err)
		}
		// The joiner fires once per token the stream emits in an iteration.
		delay := make([]sdf.Token, g.PortTokens(g.OutputPorts()[0], false))
		g, err = sdf.Flatten("quotient", sdf.Pipe("fb", synth.BuildStream(p), sdf.LoopOf("loop",
			sdf.RoundRobinJoiner([]int{1, 1}), sdf.F(sdf.Identity(2)),
			sdf.RoundRobinSplitter([]int{1, 1}), sdf.F(sdf.Identity(1)), delay)))
	}
	if err == nil {
		err = g.Steady()
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// topoCut numbers the nodes by which of k contiguous, non-empty segments of
// order they fall in.
func topoCut(r *rand.Rand, order []sdf.NodeID, k int) []int {
	owner := make([]int, len(order))
	cuts := r.Perm(len(order) - 1)[:k-1] // segment i+1 starts after position cuts[...]
	start := make([]bool, len(order))
	for _, c := range cuts {
		start[c+1] = true
	}
	part := 0
	for i, id := range order {
		if start[i] {
			part++
		}
		owner[id] = part
	}
	return owner
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// partsOf turns an owner array into pdg.Build's input — partitions that
// carry only their members — and each part's member set. Owners left empty
// by the moves are skipped.
func partsOf(g *sdf.Graph, owner []int) ([]*partition.Partition, []sdf.NodeSet) {
	members := make([][]sdf.NodeID, maxOf(owner)+1)
	for id, o := range owner {
		members[o] = append(members[o], sdf.NodeID(id))
	}
	var parts []*partition.Partition
	var sets []sdf.NodeSet
	for _, m := range members {
		if len(m) == 0 {
			continue
		}
		set := sdf.NewNodeSet(g.NumNodes())
		for _, id := range m {
			set.Add(id)
		}
		parts = append(parts, &partition.Partition{Members: m, Scale: 1, Est: &pee.Estimate{}})
		sets = append(sets, set)
	}
	return parts, sets
}
