package partition

import (
	"fmt"

	"streammap/internal/gpu"
	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// PrevWork reproduces the previous work's partitioning heuristic as
// described in §3.1.1 and §4.0.4 of the paper: it "keeps merging filters
// until the SM requirement is violated". The heuristic knows nothing about
// execution time — its only criterion is the shared-memory size (plus the
// structural convexity requirement) — which is exactly why compute-bound
// applications end up with too few, poorly balanced partitions.
//
// The resulting partitions are estimated with the same engine so they can be
// mapped and simulated, but the estimates play no role in forming them.
func PrevWork(g *sdf.Graph, eng *pee.Engine, d gpu.Device) (*Result, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("partition: prevwork requires an acyclic graph: %w", err)
	}
	assigned := make([]int, g.NumNodes())
	for i := range assigned {
		assigned[i] = -1
	}
	var members []sdf.NodeID
	fits := func(set sdf.NodeSet) bool {
		// The previous work requires at least one execution to fit in SM.
		// The engine's memoized view path scores the candidate without
		// extracting it (the estimate of the extracted subgraph).
		members = set.AppendMembers(members[:0])
		est, err := eng.Estimate(members)
		if err != nil {
			return false
		}
		return est.SMBytes <= d.SharedMemPerSM
	}

	convex := g.NewConvexChecker()
	next := sdf.NewNodeSet(g.NumNodes())
	var sets []sdf.NodeSet
	for _, id := range order {
		if assigned[id] != -1 {
			continue
		}
		cur := sdf.SingletonSet(g.NumNodes(), id)
		if !fits(cur) {
			return nil, fmt.Errorf("partition: prevwork: node %d (%s) alone violates SM", id, g.Nodes[id].Filter.Name)
		}
		assigned[id] = len(sets)
		// Greedily absorb unassigned neighbours in topological order while
		// SM and convexity allow.
		for {
			grew := false
			for _, cand := range order {
				if assigned[cand] != -1 || !adjacentToSet(g, cur, cand) {
					continue
				}
				next.CopyFrom(cur)
				next.Add(cand)
				if !convex.IsConvex(next) || !fits(next) {
					continue
				}
				cur.Add(cand)
				assigned[cand] = len(sets)
				grew = true
			}
			if !grew {
				break
			}
		}
		sets = append(sets, cur)
	}

	res := &Result{Graph: g}
	for _, set := range sets {
		members := set.Members()
		est, err := eng.Estimate(members)
		if err != nil {
			return nil, fmt.Errorf("partition: prevwork produced unschedulable partition %v: %w", set, err)
		}
		res.Parts = append(res.Parts, &Partition{Members: members, Scale: eng.ScaleOf(members), Est: est})
	}
	if err := CheckConnected(g, res.Parts); err != nil {
		return nil, err
	}
	sortParts(g, res.Parts)
	for i := range res.CountAfterPhase {
		res.CountAfterPhase[i] = len(res.Parts)
	}
	return res, nil
}

func adjacentToSet(g *sdf.Graph, set sdf.NodeSet, id sdf.NodeID) bool {
	for _, v := range g.Succ(id) {
		if set.Has(v) {
			return true
		}
	}
	for _, v := range g.Pred(id) {
		if set.Has(v) {
			return true
		}
	}
	return false
}

// SinglePartition wraps the entire graph as one partition (the SPSG mapping
// of [10], the baseline of the SOSP metric). It fails if the whole graph
// cannot fit one execution in shared memory.
func SinglePartition(g *sdf.Graph, eng *pee.Engine) (*Result, error) {
	all := make([]sdf.NodeID, g.NumNodes())
	for i := range all {
		all[i] = sdf.NodeID(i)
	}
	est, err := eng.Estimate(all)
	if err != nil {
		return nil, fmt.Errorf("partition: single-partition mapping infeasible: %w", err)
	}
	res := &Result{Graph: g, Parts: []*Partition{{Members: all, Scale: eng.ScaleOf(all), Est: est}}}
	for i := range res.CountAfterPhase {
		res.CountAfterPhase[i] = 1
	}
	return res, nil
}
