package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDirStoreRoundTrip(t *testing.T) {
	s := NewDirStore(t.TempDir())
	key := strings.Repeat("ab", 16)
	if got, err := s.Get(key); got != nil || err != nil {
		t.Fatalf("Get on empty store = %q, %v", got, err)
	}
	want := []byte(`{"format":1}`)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q", got, err, want)
	}
	// Content-addressed overwrite is idempotent.
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
}

// TestDirStoreRejectsHostileKeys: only hex content hashes may reach the
// filesystem — traversal and separator bytes must be refused, not
// sanitized.
func TestDirStoreRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	s := NewDirStore(filepath.Join(dir, "store"))
	for _, key := range []string{"", "../escape", "a/b", "ABCDEF", "zz", strings.Repeat("a", 200)} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a non-hash key", key)
		}
		if got, _ := s.Get(key); got != nil {
			t.Errorf("Get(%q) reported a hit for a non-hash key", key)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "escape")); err == nil {
		t.Fatal("hostile key escaped the store directory")
	}
}

// TestDirStoreNoTornReads: concurrent writers of the same key against a
// reader must never yield a partial value — the rename is the commit.
func TestDirStoreNoTornReads(t *testing.T) {
	s := NewDirStore(t.TempDir())
	key := strings.Repeat("cd", 16)
	val := bytes.Repeat([]byte("streammap-artifact-bytes"), 512)
	stop := time.Now().Add(100 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if err := s.Put(key, val); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for time.Now().Before(stop) {
		if got, err := s.Get(key); err != nil || (got != nil && !bytes.Equal(got, val)) {
			t.Fatalf("torn read: %d bytes, want %d (%v)", len(got), len(val), err)
		}
	}
	wg.Wait()
}

// TestDirStoreLazyDir: constructing a store creates nothing; the first
// Put does.
func TestDirStoreLazyDir(t *testing.T) {
	root := filepath.Join(t.TempDir(), "sub", "store")
	s := NewDirStore(root)
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("NewDirStore created %s", root)
	}
	if err := s.Put(strings.Repeat("ef", 16), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("Put did not create the store dir: %v", err)
	}
}

// TestDirStoreSidecar pins the integrity contract Get's callers serve
// bytes on: the entry is never in place without its sidecar, an entry
// that contradicts its sidecar — either file damaged — is quarantined
// with the evidence kept, and an entry with no sidecar is a plain miss the
// next Put overwrites.
func TestDirStoreSidecar(t *testing.T) {
	key := strings.Repeat("0a", 16)
	val := []byte(`{"format":1,"body":"streammap-artifact-bytes"}`)
	entry := func(s *DirStore) string { return filepath.Join(s.Dir(), key+".artifact.json") }

	damage := map[string]func(t *testing.T, s *DirStore){
		"entry truncated": func(t *testing.T, s *DirStore) {
			if err := os.Truncate(entry(s), int64(len(val)/2)); err != nil {
				t.Fatal(err)
			}
		},
		"entry byte flipped": func(t *testing.T, s *DirStore) {
			bad := append([]byte(nil), val...)
			bad[len(bad)/2] ^= 1
			if err := os.WriteFile(entry(s), bad, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"sidecar truncated": func(t *testing.T, s *DirStore) {
			if err := os.Truncate(entry(s)+".sha256", 10); err != nil {
				t.Fatal(err)
			}
		},
		"sidecar byte flipped": func(t *testing.T, s *DirStore) {
			side, err := os.ReadFile(entry(s) + ".sha256")
			if err != nil {
				t.Fatal(err)
			}
			side[3] ^= 1
			if err := os.WriteFile(entry(s)+".sha256", side, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, do := range damage {
		t.Run(name, func(t *testing.T) {
			s := NewDirStore(t.TempDir())
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			do(t, s)
			if got, err := s.Get(key); got != nil || err == nil {
				t.Fatalf("damaged entry: Get = %q, %v; want an integrity error", got, err)
			}
			for _, f := range []string{entry(s), entry(s) + ".sha256"} {
				if _, err := os.Stat(f); !os.IsNotExist(err) {
					t.Errorf("%s still in place after quarantine", filepath.Base(f))
				}
				if _, err := os.Stat(f + ".corrupt"); err != nil {
					t.Errorf("evidence %s.corrupt missing: %v", filepath.Base(f), err)
				}
			}
			// Quarantined once: the key is now simply absent, and free.
			if got, err := s.Get(key); got != nil || err != nil {
				t.Fatalf("second Get = %q, %v; want a plain miss", got, err)
			}
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if got, err := s.Get(key); err != nil || !bytes.Equal(got, val) {
				t.Fatalf("repaired entry: Get = %q, %v", got, err)
			}
		})
	}

	t.Run("sidecar absent", func(t *testing.T) {
		s := NewDirStore(t.TempDir())
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(entry(s) + ".sha256"); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(key); got != nil || err != nil {
			t.Fatalf("unvouched entry: Get = %q, %v; want a plain miss", got, err)
		}
		if _, err := os.Stat(entry(s) + ".corrupt"); !os.IsNotExist(err) {
			t.Error("an entry without a sidecar was quarantined")
		}
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(key); err != nil || !bytes.Equal(got, val) {
			t.Fatalf("overwritten entry: Get = %q, %v", got, err)
		}
	})
}
