package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func cacheGraph(t *testing.T, name string) *sdf.Graph {
	t.Helper()
	s := sdf.Pipe(name,
		sdf.F(sdf.NewFilter("a", 4, 4, 0, 2000, func(w *sdf.Work) { copy(w.Out[0], w.In[0][:4]) })),
		sdf.SplitDupRR("sj", 4, []int{4, 4},
			sdf.F(sdf.NewFilter("b0", 4, 4, 0, 90000, func(w *sdf.Work) { copy(w.Out[0], w.In[0][:4]) })),
			sdf.F(sdf.NewFilter("b1", 4, 4, 0, 90000, func(w *sdf.Work) { copy(w.Out[0], w.In[0][:4]) }))),
		sdf.F(sdf.NewFilter("c", 8, 8, 0, 2000, func(w *sdf.Work) { copy(w.Out[0], w.In[0][:8]) })))
	g, err := sdf.Flatten(name, s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cacheOpts() driver.Options {
	return driver.Options{Topo: topology.PairedTree(2), Workers: 2}
}

// artifactFiles lists the cache entries on disk.
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.artifact.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// flush waits for everything the service still has running in the
// background: the persistent tiers are written off the response path,
// after waiters are released, so tests rendezvous with them here.
func flush(t *testing.T, s *core.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServiceWarmStartsFromDisk is the acceptance check for the disk tier:
// a fresh Service pointed at a populated cache directory serves a
// previously compiled graph without running any pipeline stage, observable
// through ServiceStats (DiskHits, zero Misses) and through the empty
// Stages provenance of the served result.
func TestServiceWarmStartsFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cold := core.NewService(core.ServiceConfig{CacheDir: dir})
	c1, err := cold.Compile(ctx, cacheGraph(t, "warm"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Stages) == 0 {
		t.Fatal("cold compile carries no stage provenance")
	}
	flush(t, cold)
	if st := cold.Stats(); st.Misses != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
		t.Fatalf("cold service stats %+v", st)
	}
	if n := len(artifactFiles(t, dir)); n != 1 {
		t.Fatalf("%d artifacts on disk, want 1", n)
	}

	// A restarted service (fresh LRU, same directory, a fresh but equal
	// graph value) must serve from disk without compiling.
	warm := core.NewService(core.ServiceConfig{CacheDir: dir})
	c2, err := warm.Compile(ctx, cacheGraph(t, "warm"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm start did not come from disk: %+v", st)
	}
	if len(c2.Stages) != 0 {
		t.Errorf("disk-served result claims stage provenance %v — a pipeline stage ran", c2.Stages)
	}
	if err := driver.Equivalent(c1, c2); err != nil {
		t.Fatalf("disk-served result differs from cold compile: %v", err)
	}
	if err := driver.SameThroughput(c1, c2, 16); err != nil {
		t.Fatalf("disk-served throughput differs: %v", err)
	}

	// Second request on the warm service hits the in-memory tier.
	if _, err := warm.Compile(ctx, cacheGraph(t, "warm"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != 1 || st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("second warm request stats %+v", st)
	}
}

// TestServiceDiskVersionMismatch: an entry another format version wrote
// under this key is an upgrade path, not corruption — a miss, recompiled,
// and overwritten with the current version rather than quarantined.
func TestServiceDiskVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := core.NewService(core.ServiceConfig{CacheDir: dir})
	if _, err := s1.Compile(ctx, cacheGraph(t, "ver"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	flush(t, s1)
	files := artifactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d artifacts on disk", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), fmt.Sprintf(`{"format":%d,`, artifact.FormatVersion), `{"format":999,`, 1)
	if stale == string(data) {
		t.Fatal("could not stamp a stale version")
	}
	if err := os.WriteFile(files[0], []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	// As the other version's own writer would have left it: the sidecar
	// vouches for the bytes, so only their format number is wrong.
	sum := sha256.Sum256([]byte(stale))
	if err := os.WriteFile(files[0]+".sha256", []byte(hex.EncodeToString(sum[:])), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := core.NewService(core.ServiceConfig{CacheDir: dir})
	if _, err := s2.Compile(ctx, cacheGraph(t, "ver"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	flush(t, s2)
	if st := s2.Stats(); st.DiskHits != 0 || st.Misses != 1 || st.DiskWrites != 1 || st.CorruptQuarantined != 0 {
		t.Fatalf("stale-version entry not recompiled+overwritten in place: %+v", st)
	}
	// The overwrite restored a current-version entry: a third service hits.
	s3 := core.NewService(core.ServiceConfig{CacheDir: dir})
	if _, err := s3.Compile(ctx, cacheGraph(t, "ver"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("overwritten entry not served: %+v", st)
	}
}

// TestServiceDiskTruncatedRecovery: a truncated (crash-torn would be
// impossible given write-rename, but operators do strange things) entry no
// longer matches its sidecar: it is quarantined, recompiled, and rewritten.
func TestServiceDiskTruncatedRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := core.NewService(core.ServiceConfig{CacheDir: dir})
	if _, err := s1.Compile(ctx, cacheGraph(t, "trunc"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	flush(t, s1)
	files := artifactFiles(t, dir)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := core.NewService(core.ServiceConfig{CacheDir: dir})
	c, err := s2.Compile(ctx, cacheGraph(t, "trunc"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	flush(t, s2)
	if st := s2.Stats(); st.DiskHits != 0 || st.Misses != 1 || st.DiskWrites != 1 || st.CorruptQuarantined != 1 {
		t.Fatalf("truncated entry not quarantined+recompiled+rewritten: %+v", st)
	}
	if len(c.Stages) == 0 {
		t.Error("recompiled result carries no stage provenance")
	}
	// The repaired entry decodes again.
	repaired, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) <= len(data)/3 {
		t.Error("entry was not overwritten")
	}
}

// TestServiceDiskDisabledByDefault: no CacheDir, no disk I/O.
func TestServiceDiskDisabledByDefault(t *testing.T) {
	s := core.NewService(core.ServiceConfig{})
	if _, err := s.Compile(context.Background(), cacheGraph(t, "nodisk"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskWrites != 0 || st.DiskHits != 0 || st.DiskErrors != 0 {
		t.Fatalf("disk counters moved without a CacheDir: %+v", st)
	}
}
