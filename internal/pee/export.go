package pee

import (
	"fmt"

	"streammap/internal/artifact"
	"streammap/internal/gpu"
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

// Export returns the profile's wire form. The device is carried by the
// artifact's options section, not duplicated here.
func (p *Profile) Export() artifact.Profile {
	return artifact.Profile{
		C1: p.C1, C2: p.C2,
		PerFiringCycles: append([]float64(nil), p.PerFiringCycles...),
	}
}

// ImportProfile rebuilds a Profile from its wire form for the given device.
func ImportProfile(d gpu.Device, a artifact.Profile, numNodes int) (*Profile, error) {
	if len(a.PerFiringCycles) != numNodes {
		return nil, fmt.Errorf("pee: import: %d per-firing costs for %d nodes", len(a.PerFiringCycles), numNodes)
	}
	return &Profile{
		Device: d,
		C1:     a.C1, C2: a.C2,
		PerFiringCycles: append([]float64(nil), a.PerFiringCycles...),
	}, nil
}
