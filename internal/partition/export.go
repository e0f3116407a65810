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
	for _, m := range p.Members {
		out.Nodes = append(out.Nodes, int(m))
	}
	return out
}

// ExportResult returns the wire form of a whole partitioning.
func ExportResult(r *Result) []artifact.Partition {
	out := make([]artifact.Partition, len(r.Parts))
	for i, p := range r.Parts {
		out[i] = Export(p)
	}
	return out
}

// ImportResult rebuilds a partitioning over g from its wire form. Each
// estimate is restored verbatim (never re-estimated), so a decoded partition
// carries exactly the kernel parameters the original compilation selected;
// its Scale is derived from its members, and its SM bytes are held to
// smreq.PeakBytesView over them — the function that produced them — so wire
// data cannot silently disagree with the layout code generation would emit.
// The structure is the caller's to check, in the decoder's order: exact
// cover and convexity by building the PDG over the result (pdg.Build), then
// CheckConnected — so a node claimed by two partitions is named as such, not
// as the disconnected partition it makes. The phase trace is compile
// provenance and is not part of the wire form.
func ImportResult(g *sdf.Graph, parts []artifact.Partition) (*Result, error) {
	r := &Result{Graph: g}
	var v sdf.SubView
	for _, ap := range parts {
		members, err := sdf.MembersOf(g.NumNodes(), ap.Nodes)
		if err != nil {
			return nil, fmt.Errorf("partition: import: %w", err)
		}
		est, err := pee.ImportEstimate(ap.Est)
		if err != nil {
			return nil, err
		}
		v.Fill(g, members)
		sm, err := smreq.PeakBytesView(&v)
		if err != nil {
			return nil, fmt.Errorf("partition: import: %w", err)
		}
		if sm != est.SMBytes {
			return nil, fmt.Errorf("partition: import: artifact says smBytes %d, the partition needs %d", est.SMBytes, sm)
		}
		r.Parts = append(r.Parts, &Partition{Members: members, Scale: v.Scale, Est: est})
	}
	return r, nil
}
