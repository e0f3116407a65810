package pdg

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"streammap/internal/gpu"
	"streammap/internal/partition"
	"streammap/internal/pee"
	"streammap/internal/sdf"
)

func buildParts(t *testing.T, s sdf.Stream) (*sdf.Graph, []*partition.Partition) {
	t.Helper()
	g, err := sdf.Flatten("pdgtest", s)
	if err != nil {
		t.Fatal(err)
	}
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	res, err := partition.RunCtx(context.Background(), g, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Parts
}

func hot(name string, n int, ops int64) *sdf.Filter {
	return sdf.NewFilter(name, n, n, 0, ops, func(w *sdf.Work) {
		copy(w.Out[0], w.In[0][:n])
	})
}

func TestBuildChainPDG(t *testing.T) {
	// Compute-heavy wide split-join: stays as several partitions.
	g, parts := buildParts(t, sdf.SplitDupRR("sj", 512, []int{512, 512},
		sdf.F(hot("a", 512, 3000000)), sdf.F(hot("b", 512, 3000000))))
	if len(parts) < 3 {
		t.Skip("partitioner merged; nothing to check")
	}
	p, err := Build(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != len(parts) {
		t.Errorf("NumParts = %d, want %d", p.NumParts(), len(parts))
	}
	// Every partition has positive workload; host I/O lands on the
	// partitions holding the primary ports.
	var hostIn, hostOut int64
	for i := 0; i < p.NumParts(); i++ {
		if p.WorkloadUS(i) <= 0 {
			t.Errorf("partition %d has non-positive workload", i)
		}
		hostIn += p.HostInBytes[i]
		hostOut += p.HostOutBytes[i]
	}
	if hostIn != 512*sdf.TokenBytes {
		t.Errorf("host-in bytes = %d, want %d", hostIn, 512*sdf.TokenBytes)
	}
	if hostOut != 1024*sdf.TokenBytes {
		t.Errorf("host-out bytes = %d, want %d", hostOut, 1024*sdf.TokenBytes)
	}
	// Topological order respects edges.
	pos := make([]int, p.NumParts())
	for i, pi := range p.Topo {
		pos[pi] = i
	}
	for _, e := range p.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order", e.From, e.To)
		}
		if e.Bytes <= 0 {
			t.Errorf("edge %d->%d has no weight", e.From, e.To)
		}
	}
}

func TestBuildRejectsPartialCover(t *testing.T) {
	g, parts := buildParts(t, sdf.Pipe("p", sdf.F(hot("a", 8, 10)), sdf.F(hot("b", 8, 10))))
	if _, err := Build(g, parts[:0]); err == nil {
		t.Error("empty partition list should fail")
	}
}

func TestSyntheticTopoAndCycle(t *testing.T) {
	p, err := Synthetic([]float64{1, 2, 3}, []Edge{{From: 0, To: 1}, {From: 1, To: 2}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Topo) != 3 || p.Topo[0] != 0 {
		t.Errorf("topo = %v", p.Topo)
	}
	if _, err := Synthetic([]float64{1, 2}, []Edge{{From: 0, To: 1}, {From: 1, To: 0}}, nil, nil); err == nil {
		t.Error("cyclic PDG should fail")
	}
}

// topoOrderSortPerPop is topoOrder as it was: Kahn's algorithm that sorts
// the ready queue at every pop and scans every edge for each popped
// partition, O(P·E). It is the referee for the heap's order.
func topoOrderSortPerPop(n int, edges []Edge) ([]int, error) {
	indeg := make([]int, n)
	for _, e := range edges {
		indeg[e.To]++
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		sort.Ints(queue)
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range edges {
			if e.From == v {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cycle")
	}
	return order, nil
}

// TestTopoOrderMatchesSortPerPop holds the heap's order to the sort-per-pop
// referee on random Synthetic PDGs: DAGs with parallel edges under a random
// relabelling (so the smallest ready index is rarely the next in edge
// order), and every fourth one with a reversed edge, which closes a cycle
// both must reject.
func TestTopoOrderMatchesSortPerPop(t *testing.T) {
	r := rand.New(rand.NewSource(0x70B0))
	var cyclic int
	const trials = 2000
	for trial := range trials {
		n := 1 + r.Intn(40)
		perm := r.Perm(n)
		var edges []Edge
		for range r.Intn(3 * n) {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			edges = append(edges, Edge{From: perm[min(a, b)], To: perm[max(a, b)]})
		}
		if trial%4 == 3 && len(edges) > 0 {
			e := edges[r.Intn(len(edges))]
			edges = append(edges, Edge{From: e.To, To: e.From})
		}
		want, wantErr := topoOrderSortPerPop(n, edges)
		p, err := Synthetic(make([]float64, n), edges, nil, nil)
		switch {
		case wantErr != nil:
			cyclic++
			if err == nil {
				t.Fatalf("trial %d: cyclic PDG accepted with order %v", trial, p.Topo)
			}
		case err != nil:
			t.Fatalf("trial %d: %v", trial, err)
		case !slices.Equal(p.Topo, want):
			t.Fatalf("trial %d: order %v, want %v", trial, p.Topo, want)
		}
	}
	if cyclic == 0 || cyclic == trials {
		t.Fatalf("%d of %d trials cyclic: the draw covers only one side", cyclic, trials)
	}
}

func TestTotalCutBytes(t *testing.T) {
	p, err := Synthetic([]float64{1, 1}, []Edge{{From: 0, To: 1, Bytes: 100}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalCutBytes() != 100 {
		t.Errorf("TotalCutBytes = %d", p.TotalCutBytes())
	}
}
