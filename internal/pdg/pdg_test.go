package pdg

import (
	"context"
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

func TestTotalCutBytes(t *testing.T) {
	p, err := Synthetic([]float64{1, 1}, []Edge{{From: 0, To: 1, Bytes: 100}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalCutBytes() != 100 {
		t.Errorf("TotalCutBytes = %d", p.TotalCutBytes())
	}
}
