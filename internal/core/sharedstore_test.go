package core_test

import (
	"bytes"
	"context"
	"testing"

	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/fleet"
	"streammap/internal/sdf"
)

// TestServiceWarmStartsFromSharedStore is the fleet-join acceptance check
// at the core layer: a brand-new node (fresh LRU, empty private disk dir)
// pointed at a shared store another node populated serves its first
// request for a fleet-known key as a hit — zero pipeline stages — and
// write-through caches the entry into its own disk tier.
func TestServiceWarmStartsFromSharedStore(t *testing.T) {
	shared := fleet.NewDirStore(t.TempDir())
	ctx := context.Background()

	// "Node A" compiles and persists to the shared store (no private disk).
	a := core.NewService(core.ServiceConfig{Shared: shared})
	c1, err := a.Compile(ctx, cacheGraph(t, "fleetwarm"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	flush(t, a)
	if st := a.Stats(); st.Misses != 1 || st.StoreWrites != 1 || st.StoreHits != 0 {
		t.Fatalf("node A stats %+v", st)
	}

	// "Node B" joins later with its own empty disk dir and the same store.
	bDir := t.TempDir()
	b := core.NewService(core.ServiceConfig{CacheDir: bDir, Shared: shared})
	c2, err := b.Compile(ctx, cacheGraph(t, "fleetwarm"), cacheOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.StoreHits != 1 || st.Misses != 0 || st.DiskHits != 0 {
		t.Fatalf("joining node did not warm-start from the shared store: %+v", st)
	}
	if len(c2.Stages) != 0 {
		t.Errorf("store-served result claims stage provenance %v — a pipeline stage ran", c2.Stages)
	}
	if err := driver.Equivalent(c1, c2); err != nil {
		t.Fatalf("store-served result differs from node A's compile: %v", err)
	}
	flush(t, b)
	if n := len(artifactFiles(t, bDir)); n != 1 {
		t.Fatalf("shared-store hit was not write-through cached to disk (%d files)", n)
	}

	// B restarted offline (store gone) still hits its own disk tier.
	b2 := core.NewService(core.ServiceConfig{CacheDir: bDir})
	if _, err := b2.Compile(ctx, cacheGraph(t, "fleetwarm"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if st := b2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("write-through entry not served from disk: %+v", st)
	}
}

// TestServiceTierOrder: local disk is consulted before the shared store —
// a key present in both costs no store read.
func TestServiceTierOrder(t *testing.T) {
	dir := t.TempDir()
	shared := fleet.NewDirStore(t.TempDir())
	ctx := context.Background()

	s1 := core.NewService(core.ServiceConfig{CacheDir: dir, Shared: shared})
	if _, err := s1.Compile(ctx, cacheGraph(t, "tiers"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	flush(t, s1)

	s2 := core.NewService(core.ServiceConfig{CacheDir: dir, Shared: shared})
	if _, err := s2.Compile(ctx, cacheGraph(t, "tiers"), cacheOpts()); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.StoreHits != 0 || st.Misses != 0 {
		t.Fatalf("tier order wrong: %+v", st)
	}
}

// TestEncodedByHashAndIngest: the hash-keyed peer-serving face — a node
// hands out any cached compile's bytes by hash alone, from the table or a
// persistent tier, and another node ingests those bytes and serves them as
// a hit: the same bytes to a server caller, a rebuilt *Compiled to a
// library caller.
func TestEncodedByHashAndIngest(t *testing.T) {
	ctx := context.Background()
	g := cacheGraph(t, "peerbytes")
	opts := cacheOpts()
	hash, err := core.HashOf(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	owner := core.NewService(core.ServiceConfig{CacheDir: dir})
	c, err := owner.Compile(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := owner.EncodedByHash(ctx, hash)
	if !ok || len(data) == 0 {
		t.Fatal("owner cannot look up its own compile by hash")
	}
	if _, ok := owner.EncodedByHash(ctx, "feedfeedfeedfeedfeedfeedfeedfeed"); ok {
		t.Fatal("unknown hash reported a hit")
	}
	// The persistent tiers answer by hash too, with the same bytes.
	flush(t, owner)
	restarted := core.NewService(core.ServiceConfig{CacheDir: dir})
	if fromDisk, ok := restarted.EncodedByHash(ctx, hash); !ok || !bytes.Equal(fromDisk, data) {
		t.Fatal("restarted owner does not serve the persisted bytes by hash")
	}
	if st := restarted.Stats(); st.DiskHits != 1 || st.Entries != 1 {
		t.Fatalf("disk-tier answer not counted or not kept in the table: %+v", st)
	}

	// A fetching node ingests the bytes: table hit, no compile, and its
	// own disk tier now holds them.
	fetchDir := t.TempDir()
	fetcher := core.NewService(core.ServiceConfig{CacheDir: fetchDir})
	fetcher.Ingest(hash, data)
	g2 := cacheGraph(t, "peerbytes")
	served, err := fetcher.Encoded(ctx, hash, func() (*sdf.Graph, error) {
		t.Error("a table hit built its graph")
		return g2, nil
	}, opts)
	if err != nil || !bytes.Equal(served, data) {
		t.Fatalf("ingested bytes not served as they came: %v", err)
	}
	c2, err := fetcher.Compile(ctx, g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := fetcher.Stats(); st.Hits != 2 || st.Misses != 0 || st.Encodes != 0 {
		t.Fatalf("ingested artifact not served from the table: %+v", st)
	}
	if err := driver.Equivalent(c, c2); err != nil {
		t.Fatalf("ingested result differs: %v", err)
	}
	flush(t, fetcher)
	if n := len(artifactFiles(t, fetchDir)); n != 1 {
		t.Fatalf("ingested bytes not written to the private disk tier (%d files)", n)
	}

	// Bytes in the table under a key they were not compiled for are refused
	// when a library caller needs the compilation — FromArtifact checks
	// graph and options — and the poisoned entry is dropped, not kept.
	other := cacheGraph(t, "different-name")
	otherHash, err := core.HashOf(other, opts)
	if err != nil {
		t.Fatal(err)
	}
	fetcher.Ingest(otherHash, data)
	if _, err := fetcher.Compile(ctx, other, opts); err == nil {
		t.Fatal("Compile rebuilt a result from another graph's artifact")
	}
	if _, err := fetcher.Compile(ctx, other, opts); err != nil {
		t.Fatalf("dropped entry not recompiled: %v", err)
	}
	flush(t, fetcher)
}
