package sdf

import "fmt"

// ValidateSchedule checks that `order` is a valid single-appearance schedule
// (SAS) of one steady-state iteration of g: every node appears exactly once
// and, replaying the schedule with each node firing its full repetition
// count at its step, no channel ever underflows and every channel returns to
// its initial occupancy at the end (the defining property of a steady
// state). Primary inputs are treated as fully available up front and
// primary outputs as unbounded, matching the one-kernel execution scheme
// where I/O is staged through double-buffered SM regions.
//
// The underflow check accounts for sliding windows: a node firing rep times
// back to back needs (rep-1)*pop + peek tokens visible on each input before
// its step, not just rep*pop.
func ValidateSchedule(g *Graph, order []NodeID) error {
	if len(order) != len(g.Nodes) {
		return fmt.Errorf("sdf: schedule has %d steps for %d nodes", len(order), len(g.Nodes))
	}
	seen := make([]bool, len(g.Nodes))
	for _, id := range order {
		if id < 0 || int(id) >= len(g.Nodes) {
			return fmt.Errorf("sdf: schedule names unknown node %d", id)
		}
		if seen[id] {
			return fmt.Errorf("sdf: node %d appears twice in schedule", id)
		}
		seen[id] = true
	}

	avail := make([]int64, len(g.Edges))
	for _, e := range g.Edges {
		avail[e.ID] = int64(len(e.Initial))
	}
	for step, id := range order {
		n := g.Nodes[id]
		rep := g.Rep(id)
		for p, in := range n.Filter.Inputs {
			eid := n.in[p]
			if eid == -1 {
				continue // primary input: streamed in before the kernel runs
			}
			need := (rep-1)*int64(in.Pop) + int64(in.Peek)
			if avail[eid] < need {
				return fmt.Errorf("sdf: schedule step %d: node %d (%s) needs %d tokens on edge %d, has %d",
					step, id, n.Filter.Name, need, eid, avail[eid])
			}
			avail[eid] -= rep * int64(in.Pop)
		}
		for p := range n.Filter.Outputs {
			eid := n.out[p]
			if eid == -1 {
				continue // primary output: drained after the kernel runs
			}
			avail[eid] += rep * int64(g.Edges[eid].Push)
		}
	}
	for _, e := range g.Edges {
		if avail[e.ID] != int64(len(e.Initial)) {
			return fmt.Errorf("sdf: edge %d ends iteration with %d tokens, started with %d (schedule is not steady)",
				e.ID, avail[e.ID], len(e.Initial))
		}
	}
	return nil
}
