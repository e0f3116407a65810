package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/sdf"
)

// The cache identity. One compilation has one name everywhere: the
// service's table, the persistent stores' filenames, the ring that decides
// which fleet node owns it and the /v1/artifact/{key} peer-fetch route all
// use KeyHash(KeyOf(g, opts)), computed once where the request enters and
// passed down. A library caller derives it from the graph in hand (HashOf),
// the server from the request's wire form (HashOfSpec); both go through
// keyBytes, and sdf's identity referee holds the two digests equal.

// KeyOf names a compilation: the artifact format version, the SHA-256 of
// the graph's canonical structure (memoized on the graph) and the
// deterministically marshalled wire form of the normalized options — so a
// zero-value request and its explicit-default twin share one identity,
// Workers never splits it, and bytes written by another format version are
// never looked up.
func KeyOf(g *sdf.Graph, opts driver.Options) (string, error) {
	b, err := keyBytes(g.Digest(), opts)
	return string(b), err
}

// keyBytes is the one key function: digest is the graph's structural
// identity, from sdf.Graph.Digest or sdf.SpecDigest.
func keyBytes(digest [sha256.Size]byte, opts driver.Options) ([]byte, error) {
	ob, err := json.Marshal(driver.ExportOptions(driver.Normalized(opts)))
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 8+2*len(digest)+len(ob))
	b = append(b, 'v')
	b = strconv.AppendInt(b, artifact.FormatVersion, 10)
	b = append(b, '|')
	b = hex.AppendEncode(b, digest[:])
	b = append(b, '|')
	return append(b, ob...), nil
}

// KeyHash is the content address of a key: 32 hex characters, filesystem-
// and URL-safe.
func KeyHash(key string) string { return keyHash([]byte(key)) }

// HashOf is KeyHash(KeyOf(g, opts)) without the key's round trip through a
// string: what a caller that only routes by the hash asks for.
func HashOf(g *sdf.Graph, opts driver.Options) (string, error) {
	return hashed(keyBytes(g.Digest(), opts))
}

// HashOfSpec is HashOf for a graph still in its wire form: the hash
// ImportGraph(*spec) would key to, without building it. A spec ImportGraph
// rejects hashes to a key no compilation has.
func HashOfSpec(spec *sdf.GraphSpec, opts driver.Options) (string, error) {
	return hashed(keyBytes(sdf.SpecDigest(spec), opts))
}

func hashed(key []byte, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return keyHash(key), nil
}

func keyHash(key []byte) string {
	sum := sha256.Sum256(key)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// ArtifactStore is a persistent tier of the compile cache: a
// content-addressed blob store keyed by KeyHash, consulted in order after
// the in-memory table misses and written after every successful
// compilation. fleet.DirStore is the implementation for both the node's
// private disk tier and the fleet-wide shared store. Implementations must
// be safe for concurrent use by many processes. Every tier is best-effort:
// a miss falls through to the next tier, a failed Put is counted and
// dropped.
type ArtifactStore interface {
	// Get returns the bytes stored under key exactly as Put received them,
	// or (nil, nil) when there is no usable entry. A non-nil error means
	// the store held an entry that failed its integrity check and has set
	// it aside.
	Get(key string) ([]byte, error)
	// Put stores data under key; a concurrent Get sees the complete value
	// or a miss, never a prefix.
	Put(key string, data []byte) error
	// Quarantine sets aside an entry whose bytes verified but do not decode
	// to the requested compilation, preserving it for inspection and
	// freeing the key. A missing entry is not an error.
	Quarantine(key string) error
}
