package partition_test

import (
	"context"
	"testing"

	"streammap/internal/gpu"
	"streammap/internal/partition"
	"streammap/internal/pee"
)

// TestMultilevelEngineWork pins the estimator work of the multilevel flow,
// as TestPartitionerEngineWork pins Algorithm 1's: MLStats.Estimates counts
// the flow's requests, memo hits included, and the engine's Uncached the
// sweeps actually run — one per distinct member list.
func TestMultilevelEngineWork(t *testing.T) {
	for _, tc := range []struct {
		seed               uint64
		filters            int
		requests, distinct int64
	}{
		{21, 1500, 6858, 4847},
		{22, 5000, 28163, 12075},
	} {
		g := synthGraph(t, tc.seed, tc.filters)
		eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
		res, err := partition.Multilevel(context.Background(), g, eng, partition.MLOptions{})
		if err != nil {
			t.Fatalf("seed %d, %d filters: %v", tc.seed, tc.filters, err)
		}
		if got, want := [2]int64{res.ML.Estimates, eng.Stats().Uncached}, [2]int64{tc.requests, tc.distinct}; got != want {
			t.Errorf("seed %d, %d filters: (requests, sweeps) = %v, want %v", tc.seed, tc.filters, got, want)
		}
	}
}
