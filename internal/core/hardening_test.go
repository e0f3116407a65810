package core_test

// Torn-write recovery and quarantine coverage for the persistent tiers —
// the chaos tier's contract in miniature: corrupt entries are sidelined,
// never served, never silently overwritten, and the service recompiles
// cleanly past them.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/faultinject"
	"streammap/internal/fleet"
	"streammap/internal/sdf"
)

// TestServiceTornWriteRecovery is the satellite acceptance test: truncate
// a disk-tier entry AND its shared-store twin mid-file, restart the
// service on the same directories, and the warm start must skip both,
// quarantine both (entries renamed to *.corrupt, CorruptQuarantined=2),
// recompile cleanly, and leave repaired entries a third service hits.
func TestServiceTornWriteRecovery(t *testing.T) {
	cacheDir, storeDir := t.TempDir(), t.TempDir()
	store := fleet.NewDirStore(storeDir)
	ctx := context.Background()

	s1 := core.NewService(core.ServiceConfig{CacheDir: cacheDir, Shared: store})
	c1, err := s1.Compile(ctx, cacheGraph(t, "torn"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	flush(t, s1)
	if st := s1.Stats(); st.DiskWrites != 1 || st.StoreWrites != 1 {
		t.Fatalf("original not persisted to both tiers: %+v", st)
	}

	// Tear both persistent copies mid-file, as a crash mid-write (or a
	// filesystem that lied about durability) would.
	tear := func(dir string) string {
		t.Helper()
		files := artifactFiles(t, dir)
		if len(files) != 1 {
			t.Fatalf("%d artifacts in %s, want 1", len(files), dir)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		return files[0]
	}
	diskFile, storeFile := tear(cacheDir), tear(storeDir)

	// Restart: same directories, fresh LRU. Both torn entries must be
	// quarantined, the compile must run fresh, and the result must match
	// the original bit for bit.
	s2 := core.NewService(core.ServiceConfig{CacheDir: cacheDir, Shared: store})
	c2, err := s2.Compile(ctx, cacheGraph(t, "torn"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Equivalent(c1, c2); err != nil {
		t.Fatalf("recompiled result differs from original: %v", err)
	}
	flush(t, s2)
	st := s2.Stats()
	if st.DiskHits != 0 || st.StoreHits != 0 || st.Misses != 1 || st.DiskWrites != 1 || st.StoreWrites != 1 {
		t.Fatalf("torn entries were served, not skipped: %+v", st)
	}
	if st.CorruptQuarantined != 2 {
		t.Fatalf("CorruptQuarantined = %d, want 2 (disk + store): %+v", st.CorruptQuarantined, st)
	}
	for _, f := range []string{diskFile, storeFile} {
		if _, err := os.Stat(f + ".corrupt"); err != nil {
			t.Errorf("quarantined evidence %s.corrupt missing: %v", filepath.Base(f), err)
		}
	}

	// The recompile repaired both tiers: a third service disk-hits.
	s3 := core.NewService(core.ServiceConfig{CacheDir: cacheDir, Shared: store})
	if _, err := s3.Compile(ctx, cacheGraph(t, "torn"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.DiskHits != 1 || st.Misses != 0 || st.CorruptQuarantined != 0 {
		t.Fatalf("repaired entry not served clean: %+v", st)
	}
}

// TestServiceInjectedTornWrite: with a TornWrite fault schedule, the disk
// write fails loudly (DiskErrors, ErrTorn on the seam), the destination is
// never touched, and the partial temp file a crash would leave does not
// confuse a later clean service.
func TestServiceInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fi := faultinject.New(faultinject.Spec{Seed: 11, TornWrite: 1})

	s1 := core.NewService(core.ServiceConfig{CacheDir: dir, Faults: fi})
	c1, err := s1.Compile(ctx, cacheGraph(t, "injtorn"), cacheOpts())
	if err != nil {
		t.Fatal(err) // the tier is best-effort: the compile itself succeeds
	}
	flush(t, s1)
	if st := s1.Stats(); st.DiskErrors != 1 {
		t.Fatalf("torn write not counted: %+v", st)
	}
	if n := len(artifactFiles(t, dir)); n != 0 {
		t.Fatalf("torn write committed %d artifacts; destination must stay untouched", n)
	}
	if fi.Stats().Torn == 0 {
		t.Fatal("injector reports no torn writes fired")
	}

	// A clean service recompiles and persists past the leftover temp file.
	s2 := core.NewService(core.ServiceConfig{CacheDir: dir})
	c2, err := s2.Compile(ctx, cacheGraph(t, "injtorn"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	flush(t, s2)
	if err := driver.Equivalent(c1, c2); err != nil {
		t.Fatalf("recompile differs: %v", err)
	}
	if n := len(artifactFiles(t, dir)); n != 1 {
		t.Fatalf("%d artifacts after clean rewrite, want 1", n)
	}
}

// TestDirStoreQuarantine pins the store-side quarantine contract,
// including the double-quarantine race being a no-op.
func TestDirStoreQuarantine(t *testing.T) {
	store := fleet.NewDirStore(t.TempDir())
	const key = "deadbeefdeadbeefdeadbeefdeadbeef"
	if err := store.Put(key, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := store.Quarantine(key); err != nil {
		t.Fatal(err)
	}
	if data, err := store.Get(key); data != nil || err != nil {
		t.Fatalf("quarantined entry still readable under its key: %q, %v", data, err)
	}
	evidence := filepath.Join(store.Dir(), key+".artifact.json.corrupt")
	if b, err := os.ReadFile(evidence); err != nil || string(b) != "junk" {
		t.Fatalf("evidence file: %q, %v", b, err)
	}
	// Racing node already moved it: not an error.
	if err := store.Quarantine(key); err != nil {
		t.Fatalf("double quarantine: %v", err)
	}
	if err := store.Quarantine("../escape"); err == nil {
		t.Fatal("hostile key accepted")
	}
}

// TestDirStoreInjectedENOSPC: an out-of-space Put fails loudly with the
// injected error and leaves neither entry nor temp litter.
func TestDirStoreInjectedENOSPC(t *testing.T) {
	fi := faultinject.New(faultinject.Spec{Seed: 4, WriteENOSPC: 1})
	store := fleet.NewDirStore(t.TempDir()).WithFaults(fi)
	const key = "c0ffeec0ffeec0ffeec0ffeec0ffee00"
	if err := store.Put(key, []byte("data")); !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if data, _ := store.Get(key); data != nil {
		t.Fatal("failed Put still committed an entry")
	}
	ents, _ := os.ReadDir(store.Dir())
	if len(ents) != 0 {
		t.Fatalf("ENOSPC left %d files behind", len(ents))
	}
}

// encodedOf answers (g, opts) through the server's face of the service:
// keyed from the wire form, the graph built only if the service asks.
func encodedOf(t *testing.T, s *core.Service, name string) []byte {
	t.Helper()
	spec, opts := sdf.ExportGraph(cacheGraph(t, name)), cacheOpts()
	ob, err := core.OptionsKey(opts)
	if err != nil {
		t.Fatal(err)
	}
	hash := core.HashOfSpec(&spec, ob)
	data, err := s.Encoded(context.Background(), hash, func() (*sdf.Graph, error) { return sdf.ImportGraph(spec) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServiceDamagedEntries: a disk-tier hit is served on the sidecar's
// word alone, so the sidecar check is the whole defence. An entry or a
// sidecar that was truncated or had one byte flipped is quarantined once
// (both files to *.corrupt), counted once, and the request is answered by
// a recompile whose bytes — the original's, exactly — then repair the tier.
// An entry with no sidecar at all is not evidence of anything: a plain
// miss, overwritten in place.
func TestServiceDamagedEntries(t *testing.T) {
	truncate := func(t *testing.T, path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name        string
		damage      func(t *testing.T, entry string)
		quarantined int64
	}{
		{"entry truncated", func(t *testing.T, e string) { truncate(t, e) }, 1},
		{"entry byte flipped", func(t *testing.T, e string) { flip(t, e) }, 1},
		{"sidecar truncated", func(t *testing.T, e string) { truncate(t, e+".sha256") }, 1},
		{"sidecar byte flipped", func(t *testing.T, e string) { flip(t, e+".sha256") }, 1},
		{"sidecar absent", func(t *testing.T, e string) {
			if err := os.Remove(e + ".sha256"); err != nil {
				t.Fatal(err)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := core.NewService(core.ServiceConfig{CacheDir: dir})
			original := encodedOf(t, s1, "damaged")
			flush(t, s1)
			files := artifactFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("%d artifacts on disk, want 1", len(files))
			}
			tc.damage(t, files[0])

			s2 := core.NewService(core.ServiceConfig{CacheDir: dir})
			recompiled := encodedOf(t, s2, "damaged")
			flush(t, s2)
			st := s2.Stats()
			if st.DiskHits != 0 || st.Misses != 1 || st.DiskWrites != 1 || st.CorruptQuarantined != tc.quarantined {
				t.Fatalf("damaged entry: stats %+v, want a recompile and %d quarantined", st, tc.quarantined)
			}
			for _, f := range []string{files[0], files[0] + ".sha256"} {
				_, err := os.Stat(f + ".corrupt")
				if kept := err == nil; kept != (tc.quarantined == 1) {
					t.Errorf("%s.corrupt kept = %v", filepath.Base(f), kept)
				}
			}
			// The repair puts back exactly the bytes that were damaged: a
			// second, independent compile of the key encodes as the first did.
			if !bytes.Equal(recompiled, original) {
				t.Fatalf("recompile answered %d bytes that are not the original's %d", len(recompiled), len(original))
			}
			if onDisk, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(onDisk, original) {
				t.Fatalf("repaired entry is not the original's bytes (read: %v)", err)
			}

			s3 := core.NewService(core.ServiceConfig{CacheDir: dir})
			if repaired := encodedOf(t, s3, "damaged"); !bytes.Equal(repaired, recompiled) {
				t.Error("repaired tier does not serve the recompile's bytes")
			}
			if st := s3.Stats(); st.DiskHits != 1 || st.Misses != 0 || st.CorruptQuarantined != 0 {
				t.Fatalf("repaired entry not served clean: %+v", st)
			}
		})
	}
}

// gatedStore is an ArtifactStore whose Put blocks until released.
type gatedStore struct {
	*fleet.DirStore
	gate chan struct{}
}

func (g gatedStore) Put(key string, data []byte) error {
	<-g.gate
	return g.DirStore.Put(key, data)
}

// TestServiceFlushAndClose: background work has an owner. A compile is
// answered before its artifact is persisted; Flush is the barrier that
// waits for the write (and says so when it cannot), a compilation whose
// caller gave up still finishes under it, and Close refuses new work.
func TestServiceFlushAndClose(t *testing.T) {
	store := gatedStore{fleet.NewDirStore(t.TempDir()), make(chan struct{})}
	s := core.NewService(core.ServiceConfig{Shared: store})
	ctx := context.Background()
	if _, err := s.Compile(ctx, cacheGraph(t, "owned"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if n := s.Pending(); n != 1 {
		t.Fatalf("%d background tasks after an answered compile with its persist gated, want 1", n)
	}
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.Flush(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush over a gated persist returned %v, want the context's error", err)
	}

	// A second compile whose caller is already gone runs detached.
	if _, err := s.Compile(expired, cacheGraph(t, "abandoned"), cacheOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v", err)
	}
	close(store.gate)
	flush(t, s)
	if st := s.Stats(); st.Misses != 2 || st.StoreWrites != 2 || st.Entries != 2 || s.Pending() != 0 {
		t.Fatalf("after Flush: %+v, pending %d; want both compiles finished and persisted", st, s.Pending())
	}
	if _, err := s.Compile(ctx, cacheGraph(t, "abandoned"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Fatalf("abandoned compile did not fill the table: %+v", st)
	}

	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(ctx, cacheGraph(t, "owned"), cacheOpts()); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Compile after Close returned %v, want ErrClosed", err)
	}
}
