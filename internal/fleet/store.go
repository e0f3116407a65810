package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"streammap/internal/atomicfile"
	"streammap/internal/faultinject"
)

// DirStore is the directory-backed artifact store behind both persistent
// cache tiers (core.ArtifactStore): a node's private disk tier and, on a
// shared filesystem, the fleet-wide store every node warm-starts from.
// Keys are content-address hashes (hex, core.KeyHash); a value lives in
// <key>.artifact.json as the bare bytes Put received, beside a
// <key>.artifact.json.sha256 sidecar holding their SHA-256 in hex.
//
// Put writes the sidecar, then the entry, each with the durable atomic
// recipe (exclusive temp file, fsync, rename, fsync of the directory), so
// an entry is never visible before its sidecar and a committed entry
// survives a crash. Get returns bytes only when they hash to the sidecar:
// one read and one hash vouch for the value, so callers can serve it
// without decoding it. An entry without a sidecar (written by a build that
// predates them, or half of an interrupted quarantine) is a miss the next
// Put overwrites; an entry that contradicts its sidecar is quarantined.
type DirStore struct {
	dir    string
	faults *faultinject.Injector
}

// NewDirStore returns a store rooted at dir. The directory is created
// lazily on first Put, so constructing a store is side-effect free.
func NewDirStore(dir string) *DirStore { return &DirStore{dir: dir} }

// WithFaults returns a view of the store whose writes go through fi's
// torn-write/corruption/ENOSPC schedule — the chaos tier's seam into the
// persistent tiers. A nil injector returns s unchanged, so callers thread
// the result through unconditionally.
func (s *DirStore) WithFaults(fi *faultinject.Injector) *DirStore {
	if fi == nil {
		return s
	}
	return &DirStore{dir: s.dir, faults: fi}
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

const sidecarExt = ".sha256"

// path maps a key to its entry file. Keys are hex content hashes; anything
// else is rejected by validKey before touching the filesystem.
func (s *DirStore) path(key string) string {
	return filepath.Join(s.dir, key+".artifact.json")
}

// validKey guards the filesystem namespace: only lowercase-hex content
// hashes are legal keys, so a malicious or corrupted key can never
// traverse out of the store directory.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}

func hexSum(data []byte) []byte {
	sum := sha256.Sum256(data)
	return hex.AppendEncode(make([]byte, 0, 2*len(sum)), sum[:])
}

// Get returns the verified bytes stored under key, (nil, nil) on a miss
// (absent, unreadable, no sidecar), or an error after quarantining an
// entry that does not hash to its sidecar.
func (s *DirStore) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, nil
	}
	p := s.path(key)
	want, err := os.ReadFile(p + sidecarExt)
	if err != nil {
		return nil, nil
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, nil
	}
	if !bytes.Equal(hexSum(data), want) {
		err := fmt.Errorf("fleet: entry %s (%d bytes) does not match its sidecar", key, len(data))
		if qerr := s.Quarantine(key); qerr != nil {
			err = fmt.Errorf("%w; quarantine failed: %v", err, qerr)
		}
		return nil, err
	}
	return data, nil
}

// Put durably stores data under key: sidecar first, so the entry is never
// in place without it. Replays of a key are overwrites.
func (s *DirStore) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("fleet: invalid store key %q", key)
	}
	p := s.path(key)
	if err := atomicfile.Write(p+sidecarExt, hexSum(data), s.faults, "store"); err != nil {
		return err
	}
	return atomicfile.Write(p, data, s.faults, "store")
}

// Quarantine moves an entry and its sidecar aside as *.corrupt: the
// evidence survives for inspection and the key is free for the next clean
// Put. Missing files are not an error — another node racing the same
// corrupt bytes may have quarantined them first.
func (s *DirStore) Quarantine(key string) error {
	if !validKey(key) {
		return fmt.Errorf("fleet: invalid store key %q", key)
	}
	p := s.path(key)
	for _, f := range []string{p, p + sidecarExt} {
		if err := os.Rename(f, f+".corrupt"); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
