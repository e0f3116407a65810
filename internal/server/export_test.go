package server

import (
	"streammap/internal/artifact"
	"streammap/internal/topology"
)

// NewRemapRequest builds the wire request for re-targeting a through d.
func NewRemapRequest(a *artifact.Artifact, d topology.Degradation) (RemapRequest, error) {
	b, err := a.Encode()
	if err != nil {
		return RemapRequest{}, err
	}
	return RemapRequest{Artifact: b, Degradation: d}, nil
}
