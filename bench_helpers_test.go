package streammap

import (
	"streammap/internal/mapping"
	"streammap/internal/pdg"
	"streammap/internal/sdf"
	"streammap/internal/smreq"
	"streammap/internal/topology"
)

type pdgEdge = pdg.Edge

// newSynthProblem builds a mapping problem over synthetic workloads for the
// ILP micro-benchmark.
func newSynthProblem(work []float64, edges []pdgEdge, gpus int) *mapping.Problem {
	g, err := pdg.Synthetic(len(work), edges, nil, nil)
	if err != nil {
		panic(err)
	}
	return &mapping.Problem{
		PDG:           g,
		Topo:          topology.PairedTree(gpus),
		FragmentIters: 1,
		TimesUS:       work, // one iteration per fragment, no launch cost
	}
}

// smreqAnalyze returns the SM requirement under static or lifetime-shared
// allocation.
func smreqAnalyze(sub *sdf.Subgraph, shared bool) (int64, error) {
	var lay *smreq.Layout
	var err error
	if shared {
		lay, err = smreq.AnalyzeShared(sub)
	} else {
		lay, err = smreq.Analyze(sub)
	}
	if err != nil {
		return 0, err
	}
	return lay.PeakBytes, nil
}
