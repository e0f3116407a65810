package server

import (
	"encoding/json"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// CompileRequest is the wire form of one compile call: the structural
// graph spec plus the normalized compile options (which embed the
// topology spec). Both halves reuse the artifact package's export forms,
// so the request is exactly "the head of an artifact": what the response
// artifact will claim to have been compiled from and under.
type CompileRequest struct {
	Graph   sdf.GraphSpec    `json:"graph"`
	Options artifact.Options `json:"options"`
}

// NewRequest builds the wire request for compiling g under opts —
// sdf.ExportGraph for the structure, driver.ExportOptions for the
// normalized options. Workers never goes on the wire: the server owns its
// own parallelism.
func NewRequest(g *sdf.Graph, opts driver.Options) CompileRequest {
	return CompileRequest{
		Graph:   sdf.ExportGraph(g),
		Options: driver.ExportOptions(opts),
	}
}

// RemapRequest is the wire form of one remap call: a previously served
// (or locally exported) artifact plus the degradation to re-target it
// through. The artifact travels as its own encoding — the same bytes a
// compile response carries — so a client can feed a compile response
// straight back when a device drops out from under it.
type RemapRequest struct {
	Artifact    json.RawMessage      `json:"artifact"`
	Degradation topology.Degradation `json:"degradation"`
}

// remapKey is the coalescing identity of a remap: the SHA-256 of the
// artifact's bytes as sent plus the canonical wire form of the
// degradation. Clients that feed one compile response back through one
// fleet event send identical bytes, so they share a run. The "remap|"
// prefix keeps the keyspace disjoint from compile keys (bare hex) in the
// service's table.
func remapKey(req RemapRequest) (string, error) {
	db, err := json.Marshal(req.Degradation)
	if err != nil {
		return "", err
	}
	return "remap|" + contentHash(req.Artifact) + "|" + string(db), nil
}
