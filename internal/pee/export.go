package pee

import (
	"fmt"

	"streammap/internal/artifact"
)

// Export returns the estimate's wire form (package pee's explicit
// export/import form: the artifact codec never touches Estimate directly).
func (e *Estimate) Export() artifact.Estimate {
	return artifact.Estimate{
		S: e.Params.S, W: e.Params.W, F: e.Params.F,
		SMBytes: e.SMBytes, DBytes: e.DBytes,
		TcompUS: e.TcompUS, TdtUS: e.TdtUS, TdbUS: e.TdbUS,
		TexecUS: e.TexecUS, TUS: e.TUS, LaunchUS: e.LaunchUS,
	}
}

// ImportEstimate rebuilds an Estimate from its wire form verbatim — no
// re-estimation, so a decoded artifact scores exactly as the original
// compilation did.
func ImportEstimate(a artifact.Estimate) (*Estimate, error) {
	if a.S <= 0 || a.W <= 0 || a.F <= 0 {
		return nil, fmt.Errorf("pee: import: non-positive kernel parameters (S=%d, W=%d, F=%d)", a.S, a.W, a.F)
	}
	return &Estimate{
		Params:  Params{S: a.S, W: a.W, F: a.F},
		SMBytes: a.SMBytes, DBytes: a.DBytes,
		TcompUS: a.TcompUS, TdtUS: a.TdtUS, TdbUS: a.TdbUS,
		TexecUS: a.TexecUS, TUS: a.TUS, LaunchUS: a.LaunchUS,
	}, nil
}
