package partition

import (
	"fmt"

	"streammap/internal/artifact"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/smreq"
)

// Export returns the partition's wire form: its node list and the
// estimator's verdict.
func Export(p *Partition) artifact.Partition {
	out := artifact.Partition{Est: p.Est.Export()}
	for _, m := range p.Sub.NodeOf {
		out.Nodes = append(out.Nodes, int(m))
	}
	return out
}

// Import rebuilds a Partition over g from its wire form. The subgraph is
// re-extracted deterministically from the node list; the estimate is
// restored verbatim (never re-estimated), so a decoded partition carries
// exactly the kernel parameters the original compilation selected. Its SM
// requirement is held to a fresh analysis of the extracted subgraph — the one
// the code generator runs — so wire data cannot silently disagree with what
// codegen would use.
func Import(g *sdf.Graph, a artifact.Partition) (*Partition, error) {
	members, err := sdf.MembersOf(g.NumNodes(), a.Nodes)
	if err != nil {
		return nil, fmt.Errorf("partition: import: %w", err)
	}
	sub, err := g.Extract(members)
	if err != nil {
		return nil, fmt.Errorf("partition: import: %w", err)
	}
	est, err := pee.ImportEstimate(a.Est)
	if err != nil {
		return nil, err
	}
	lay, err := smreq.Analyze(sub)
	if err != nil {
		return nil, fmt.Errorf("partition: import: %w", err)
	}
	if lay.PeakBytes != est.SMBytes {
		return nil, fmt.Errorf("partition: import: artifact says smBytes %d, the subgraph needs %d", est.SMBytes, lay.PeakBytes)
	}
	return &Partition{Sub: sub, Est: est}, nil
}

// ExportResult returns the wire form of a whole partitioning.
func ExportResult(r *Result) []artifact.Partition {
	out := make([]artifact.Partition, len(r.Parts))
	for i, p := range r.Parts {
		out[i] = Export(p)
	}
	return out
}

// ImportResult rebuilds a partitioning over g and re-checks exact cover and
// connectivity, so a corrupted or mismatched artifact cannot produce an
// invalid partitioning; convexity is held by the PDG the decoder builds
// over the result (pdg.Build rejects a cyclic quotient). The phase trace is
// compile provenance and is not part of the wire form.
func ImportResult(g *sdf.Graph, parts []artifact.Partition) (*Result, error) {
	r := &Result{Graph: g}
	for _, ap := range parts {
		p, err := Import(g, ap)
		if err != nil {
			return nil, err
		}
		r.Parts = append(r.Parts, p)
	}
	if err := validate(g, r.Parts, true); err != nil {
		return nil, fmt.Errorf("partition: import: %w", err)
	}
	return r, nil
}
