package pee_test

// Differential property test for the hash-keyed memo: over synthetic graphs
// from the same generator the corpus uses, the engine's hash-keyed,
// view-scored Estimate must return byte-identical estimates to a
// reference memo keyed on the collision-free NodeSet.String form and scored
// through Extract + EstimateSubgraph — the pre-refactor path. A divergence
// would mean either the view scoring drifted from the materialized scoring
// or a hash collision misattributed a memo entry.

import (
	"errors"
	"testing"

	"streammap/internal/gpu"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/synth"
)

// refEstimate is the reference path: string-keyed memo over the extracted
// subgraph.
type refEstimate struct {
	g    *sdf.Graph
	prof *pee.Profile
	memo map[string]refEntry
}

type refEntry struct {
	est *pee.Estimate
	err error
}

func (r *refEstimate) estimate(set sdf.NodeSet) (*pee.Estimate, error) {
	key := set.String()
	if e, ok := r.memo[key]; ok {
		return e.est, e.err
	}
	var entry refEntry
	sub, err := r.g.Extract(set.Members())
	if err != nil {
		entry = refEntry{nil, err}
	} else {
		est, err := pee.EstimateSubgraph(sub, r.prof)
		entry = refEntry{est, err}
	}
	r.memo[key] = entry
	return entry.est, entry.err
}

// candidateSets enumerates a Try-Merge-like family over g: every singleton,
// growing windows along the topological order (the phase-1 shape), and every
// adjacent pair union (the phase-3 shape).
func candidateSets(t *testing.T, g *sdf.Graph) []sdf.NodeSet {
	t.Helper()
	n := g.NumNodes()
	var sets []sdf.NodeSet
	for i := 0; i < n; i++ {
		sets = append(sets, sdf.SingletonSet(n, sdf.NodeID(i)))
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatalf("topo order: %v", err)
	}
	for start := 0; start < len(order); start += 3 {
		w := sdf.NewNodeSet(n)
		for size := 0; size < 6 && start+size < len(order); size++ {
			w.Add(order[start+size])
			sets = append(sets, w.Clone())
		}
	}
	for i := 0; i < n; i++ {
		for _, v := range g.Succ(sdf.NodeID(i)) {
			u := sdf.NewNodeSet(n)
			u.Add(sdf.NodeID(i))
			u.Add(v)
			sets = append(sets, u)
		}
	}
	return sets
}

func estimatesEqual(a, b *pee.Estimate) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b // flat struct of ints and float64s: byte-identical check
}

func TestHashMemoMatchesStringKeyedReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		g, err := synth.BuildGraph(synth.GraphParams{Seed: seed, Filters: 16})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof := pee.ProfileGraph(g, gpu.M2090())
		eng := pee.NewEngine(g, prof)
		ref := &refEstimate{g: g, prof: prof, memo: map[string]refEntry{}}
		for _, set := range candidateSets(t, g) {
			got, gotErr := eng.Estimate(set.Members())
			want, wantErr := ref.estimate(set)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d set %v: error mismatch: engine %v, reference %v", seed, set, gotErr, wantErr)
			}
			if gotErr != nil {
				if errors.Is(gotErr, pee.ErrInfeasible) != errors.Is(wantErr, pee.ErrInfeasible) {
					t.Fatalf("seed %d set %v: error kind mismatch: engine %v, reference %v", seed, set, gotErr, wantErr)
				}
				continue
			}
			if !estimatesEqual(got, want) {
				t.Fatalf("seed %d set %v: estimate mismatch:\nengine    %+v\nreference %+v", seed, set, got, want)
			}
		}
		// Scoring twice from a warm memo must be stable too.
		for _, set := range candidateSets(t, g) {
			got, gotErr := eng.Estimate(set.Members())
			want, wantErr := ref.estimate(set)
			if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !estimatesEqual(got, want)) {
				t.Fatalf("seed %d set %v: warm re-query diverged", seed, set)
			}
		}
	}
}

// TestScaleOfMatchesExtract pins the deferred-extraction workload scale: the
// engine's gcd-of-reps shortcut must equal the Scale Extract records.
func TestScaleOfMatchesExtract(t *testing.T) {
	g, err := synth.BuildGraph(synth.GraphParams{Seed: 7, Filters: 14})
	if err != nil {
		t.Fatal(err)
	}
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	for _, set := range candidateSets(t, g) {
		sub, err := g.Extract(set.Members())
		if err != nil {
			continue
		}
		if got := eng.ScaleOf(set.Members()); got != sub.Scale {
			t.Fatalf("set %v: ScaleOf %d != Extract scale %d", set, got, sub.Scale)
		}
	}
}
