package partition

import (
	"fmt"

	"streammap/internal/artifact"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/smreq"
)

// Export returns the partition's wire form: its node list, granularity
// scale, the estimator's verdict and the shared-memory layout (recomputed
// deterministically from the subgraph — the same analysis the estimator and
// the code generator share).
func Export(p *Partition) (artifact.Partition, error) {
	lay, err := smreq.Analyze(p.Sub)
	if err != nil {
		return artifact.Partition{}, fmt.Errorf("partition: export: %w", err)
	}
	out := artifact.Partition{
		Scale:  p.Sub.Scale,
		Est:    p.Est.Export(),
		Layout: smreq.Export(lay),
	}
	for _, m := range p.Sub.NodeOf {
		out.Nodes = append(out.Nodes, int(m))
	}
	return out, nil
}

// Import rebuilds a Partition over g from its wire form. The subgraph is
// re-extracted deterministically from the node list; the estimate is
// restored verbatim (never re-estimated), so a decoded partition carries
// exactly the kernel parameters the original compilation selected.
func Import(g *sdf.Graph, a artifact.Partition) (*Partition, error) {
	members, err := sdf.MembersOf(g.NumNodes(), a.Nodes)
	if err != nil {
		return nil, fmt.Errorf("partition: import: %w", err)
	}
	sub, err := g.Extract(members)
	if err != nil {
		return nil, fmt.Errorf("partition: import: %w", err)
	}
	if sub.Scale != a.Scale {
		return nil, fmt.Errorf("partition: import: extracted scale %d, artifact says %d (graph mismatch?)", sub.Scale, a.Scale)
	}
	// The serialized layout is held to a fresh analysis of the extracted
	// subgraph: the wire data exists for inspection, and inspection data
	// that can silently disagree with what codegen would use is worse than
	// none.
	wire, err := smreq.Import(a.Layout)
	if err != nil {
		return nil, err
	}
	fresh, err := smreq.Analyze(sub)
	if err != nil {
		return nil, fmt.Errorf("partition: import: %w", err)
	}
	if err := smreq.Equal(wire, fresh); err != nil {
		return nil, fmt.Errorf("partition: import: serialized SM layout disagrees with the subgraph: %w", err)
	}
	est, err := pee.ImportEstimate(a.Est)
	if err != nil {
		return nil, err
	}
	return &Partition{Sub: sub, Est: est}, nil
}

// ExportResult returns the wire form of a whole partitioning.
func ExportResult(r *Result) ([]artifact.Partition, error) {
	out := make([]artifact.Partition, 0, len(r.Parts))
	for _, p := range r.Parts {
		ap, err := Export(p)
		if err != nil {
			return nil, err
		}
		out = append(out, ap)
	}
	return out, nil
}

// ImportResult rebuilds a partitioning over g and re-checks the cover
// invariants (exact cover, convexity, connectivity) so a corrupted or
// mismatched artifact cannot produce an invalid partitioning. The phase
// trace is compile provenance and is not part of the wire form.
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
