package pee

// Forced-collision test for the memo's list-compare fallback: with the hash
// function pinned to a constant, every member list lands in one bucket, so
// only comparing the stored lists keeps entries apart. Distinct lists must
// still return their own estimates on query and on re-query.

import (
	"testing"

	"streammap/internal/gpu"
	"streammap/internal/sdf"
)

func TestMemoCollisionFallback(t *testing.T) {
	orig := listHash
	listHash = func([]sdf.NodeID) uint64 { return 42 }
	defer func() { listHash = orig }()

	g, err := sdf.Flatten("p", sdf.Pipe("p",
		sdf.F(work("a", 4, 10)),
		sdf.F(work("b", 4, 20)),
		sdf.F(work("c", 4, 30))))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, ProfileGraph(g, gpu.M2090()))

	lists := [][]sdf.NodeID{{0}, {1}, {2}, {0, 1, 2}}
	ests := make([]*Estimate, len(lists))
	scratch := make([]sdf.NodeID, 0, 3)
	for i, l := range lists {
		// The engine must own what it stores: the caller's slice is reused.
		scratch = append(scratch[:0], l...)
		est, err := e.Estimate(scratch)
		if err != nil {
			t.Fatalf("list %v: %v", l, err)
		}
		ests[i] = est
	}
	// Re-querying must hit the right entry despite the shared bucket.
	for i, l := range lists {
		est, err := e.Estimate(l)
		if err != nil {
			t.Fatalf("requery list %v: %v", l, err)
		}
		if est != ests[i] {
			t.Fatalf("list %v returned a different entry on re-query", l)
		}
	}
	// The three filters have different Ops, so their compute times must
	// differ, and the whole pipeline computes longer than any one filter —
	// shared entries would indicate misattribution.
	for i := range ests {
		for j := i + 1; j < len(ests); j++ {
			if ests[i] == ests[j] || ests[i].TcompUS == ests[j].TcompUS {
				t.Fatalf("lists %v and %v share estimates under forced collisions: %+v %+v",
					lists[i], lists[j], ests[i], ests[j])
			}
		}
	}
	if st := e.Stats(); st.Queries != 8 || st.Misses != 4 || st.Hits() != 4 {
		t.Fatalf("stats %+v, want 8 queries / 4 misses / 4 hits", st)
	}
}
