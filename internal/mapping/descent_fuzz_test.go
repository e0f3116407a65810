package mapping_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streammap/internal/mapping"
	"streammap/internal/pdg"
)

// descentFuzzProblem draws one mapping problem for the descent's referee: a
// drawTree tree of 2–8 GPUs (homogeneous, throttled, one directed link
// changed, or a GPU lost), up to 40 partitions whose times are not integral
// and are sized against the tree's link times, transfers along a chain and
// between random pairs — some in both directions between one pair, some
// parallel, some empty — host I/O on some partitions, and either transfer
// model. The PDG is built directly: the mapper does not need the quotient
// acyclic, and a pair exchanging data both ways is what a swap's correction
// must get right.
func descentFuzzProblem(tb testing.TB, seed uint64) *mapping.Problem {
	tb.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	tree := drawTree(tb, r, seed, 2+r.Intn(7))
	n := 2 + r.Intn(39)
	maxUS := []float64{4, 15, 40}[r.Intn(3)]
	g := &pdg.PDG{
		WorkUS:       make([]float64, n),
		HostInBytes:  make([]int64, n),
		HostOutBytes: make([]int64, n),
		Topo:         make([]int, n),
	}
	for i := range g.WorkUS {
		g.WorkUS[i] = float64(1+r.Intn(100_000)) / 100_000 * maxUS
		g.Topo[i] = i
		if r.Intn(4) == 0 {
			g.HostInBytes[i] = int64(r.Intn(200_000))
		}
		if r.Intn(4) == 0 {
			g.HostOutBytes[i] = int64(r.Intn(200_000))
		}
	}
	edge := func(from, to int) {
		e := pdg.Edge{From: from, To: to, Bytes: int64(r.Intn(200_000))}
		if r.Intn(8) == 0 {
			e.Bytes = 0
		}
		g.Edges = append(g.Edges, e)
		if r.Intn(6) == 0 { // a parallel edge
			g.Edges = append(g.Edges, pdg.Edge{From: from, To: to, Bytes: int64(r.Intn(50_000))})
		}
	}
	for i := 0; i+1 < n; i++ {
		if r.Intn(4) != 0 {
			edge(i, i+1)
		}
	}
	for range r.Intn(2 * n) {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		edge(i, j)
		if r.Intn(3) == 0 { // the same pair the other way round
			edge(j, i)
		}
	}
	return &mapping.Problem{
		PDG: g, Topo: tree,
		FragmentIters: 1 + r.Intn(3), LaunchUS: float64(r.Intn(2)) * 0.5,
		ViaHost: r.Intn(2) == 0,
	}
}

// FuzzDescent holds the production descent to the unfiltered one from every
// cold seed — same placement, same objective bits, same number of
// candidates scored — and Greedy to its from-scratch form, on problems drawn
// by descentFuzzProblem. The seed corpus is in testdata/fuzz/FuzzDescent.
func FuzzDescent(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := descentFuzzProblem(t, seed)
		greedy := mapping.Greedy(p)
		if want := mapping.GreedyRescan(p); !sameDescent(greedy, want) {
			t.Fatalf("seed %#x: Greedy %v %v, from scratch %v %v", seed, greedy.GPUOf, greedy.Objective, want.GPUOf, want.Objective)
		}
		ctx := context.Background()
		for s, start := range mapping.ColdSeeds(p, greedy.GPUOf) {
			got, _, gotN := mapping.DescendDelta(ctx, p, start)
			want, wantN := mapping.DescendDeltaUnfiltered(ctx, p, start)
			if !sameDescent(got, want) || gotN != wantN {
				t.Fatalf("seed %#x cold seed %d: %v %v after %d candidates, unfiltered %v %v after %d",
					seed, s, got.GPUOf, got.Objective, gotN, want.GPUOf, want.Objective, wantN)
			}
		}
	})
}

// TestGreedyMatchesRescan is the referee of Greedy's delta scoring: on the
// descentProblem family and on compiler-produced problems, under both
// transfer models, it places every partition where the from-scratch Greedy
// does and scores the same objective bits.
func TestGreedyMatchesRescan(t *testing.T) {
	problems := compiledProblems(t)
	for _, gpus := range []int{2, 3, 4, 8} {
		for _, n := range []int{24, 120, 600} {
			problems[fmt.Sprintf("descentProblem n=%d/%dgpu", n, gpus)] = mapping.DescentProblem(t, n, gpus, 10, 0xD15C)
		}
	}
	for name, p := range problems {
		for _, viaHost := range []bool{false, true} {
			q := *p
			q.ViaHost = viaHost
			if got, want := mapping.Greedy(&q), mapping.GreedyRescan(&q); !sameDescent(got, want) {
				t.Errorf("%s viaHost=%t: objective %v, from scratch %v (placements equal: %t)",
					name, viaHost, got.Objective, want.Objective, slices.Equal(got.GPUOf, want.GPUOf))
			}
		}
	}
}
