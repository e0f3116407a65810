package partition_test

import (
	"context"
	"testing"

	"streammap/internal/gpu"
	"streammap/internal/partition"
	"streammap/internal/pee"
)

// TestMultilevelEngineWork pins the estimator work of the multilevel flow,
// as TestPartitionerEngineWork pins Algorithm 1's: the engine's Queries
// counts the flow's requests, memo hits included, and its Misses the sweeps
// actually run — one per distinct member list.
func TestMultilevelEngineWork(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		filters int
		want    pee.Stats
	}{
		{21, 1500, pee.Stats{Queries: 6858, Misses: 4847}},
		{22, 5000, pee.Stats{Queries: 28163, Misses: 12075}},
	} {
		g := synthGraph(t, tc.seed, tc.filters)
		eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
		if _, err := partition.Multilevel(context.Background(), g, eng, partition.MLOptions{}); err != nil {
			t.Fatalf("seed %d, %d filters: %v", tc.seed, tc.filters, err)
		}
		if got := eng.Stats(); got != tc.want {
			t.Errorf("seed %d, %d filters: the engine reads %v, want %v", tc.seed, tc.filters, got, tc.want)
		}
	}
}
