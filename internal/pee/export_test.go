package pee

import (
	"streammap/internal/sdf"
	"streammap/internal/smreq"
)

// EstimateSubgraph is the reference the engine's view scoring is held to:
// parameter selection and the performance model over one materialized
// subgraph, its SM bytes from the full layout analysis and its I/O bytes
// from the extracted graph's own primary ports.
func EstimateSubgraph(s *sdf.Subgraph, prof *Profile) (*Estimate, error) {
	d := &prof.Device
	lay, err := smreq.Analyze(s)
	if err != nil {
		return nil, err
	}
	costs := make([]nodeCost, 0, s.Sub.NumNodes())
	var sVals []int
	for _, n := range s.Sub.Nodes {
		f := s.Sub.Rep(n.ID)
		parent := s.NodeOf[n.ID]
		costs = append(costs, nodeCost{cycles: float64(f) * prof.PerFiringCycles[parent], f: f})
		sVals = appendCandidates(sVals, f, d)
	}
	sVals = finishCandidates(sVals, d)
	sc := &estScratch{costs: costs, sVals: sVals}
	return sc.sweep(prof, lay.PeakBytes, subgraphIOBytes(s))
}

// subgraphIOBytes returns the primary input plus output traffic, in bytes,
// of one subgraph steady-state iteration: the paper's per-execution I/O data
// size D, counted on the extracted graph's primary ports — cut edges and
// inherited primary ports alike.
func subgraphIOBytes(s *sdf.Subgraph) int64 {
	var tokens int64
	for _, p := range s.Sub.InputPorts() {
		tokens += s.Sub.PortTokens(p, true)
	}
	for _, p := range s.Sub.OutputPorts() {
		tokens += s.Sub.PortTokens(p, false)
	}
	return tokens * sdf.TokenBytes
}
