package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func serviceOpts(gpus int) driver.Options {
	return driver.Options{
		Topo:       topology.PairedTree(gpus),
		MapOptions: mapping.Options{TimeBudget: 300 * time.Millisecond},
	}
}

func TestServiceCachesByKey(t *testing.T) {
	s := NewService(ServiceConfig{})
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Compile(context.Background(), g, serviceOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Same structure, rebuilt graph: must hit.
	g2, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Compile(context.Background(), g2, serviceOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("structurally identical request missed the cache")
	}
	// Different topology: must miss.
	if c3, err := s.Compile(context.Background(), g, serviceOpts(4)); err != nil {
		t.Fatal(err)
	} else if c3 == c1 {
		t.Error("different topology hit the same entry")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats %+v, want 1 hit / 2 misses / 2 entries", st)
	}
}

// TestServiceConcurrent floods the service with 64 concurrent compilations
// of the same graph: exactly one compile runs, everyone gets the identical
// result.
func TestServiceConcurrent(t *testing.T) {
	s := NewService(ServiceConfig{})
	app, _ := apps.ByName("FMRadio")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	const N = 64
	results := make([]*driver.Compiled, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Compile(context.Background(), g, serviceOpts(4))
		}(i)
	}
	wg.Wait()
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d got a different compilation", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("%d compilations ran, want 1", st.Misses)
	}
	if st.Hits != N-1 {
		t.Errorf("%d cache hits, want %d", st.Hits, N-1)
	}
}

func TestServiceEviction(t *testing.T) {
	s := NewService(ServiceConfig{MaxEntries: 2})
	app, _ := apps.ByName("Bitonic")
	for _, n := range []int{2, 4, 8} {
		g, err := apps.BuildGraph(app, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compile(context.Background(), g, serviceOpts(2)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats %+v, want 2 entries / 1 eviction", st)
	}
	// The oldest (n=2) was evicted: recompiling it is a miss, and pushes
	// the then-oldest entry out in turn — the counter is cumulative.
	g, err := apps.BuildGraph(app, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(context.Background(), g, serviceOpts(2)); err != nil {
		t.Fatal(err)
	}
	if st = s.Stats(); st.Misses != 4 {
		t.Errorf("misses %d, want 4 (evicted entry recompiled)", st.Misses)
	}
	if st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("stats %+v, want 2 cumulative evictions / 2 entries", st)
	}
}

// TestServiceEngineStatsAggregate: fresh compilations fold their
// estimation-engine memo counters into the service-wide aggregate; cache
// hits re-serve already-counted results and must not inflate it.
func TestServiceEngineStatsAggregate(t *testing.T) {
	s := NewService(ServiceConfig{})
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(context.Background(), g, serviceOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	want := EngineStatsOf(c.Estimates)
	if want.Queries == 0 {
		t.Fatal("compile ran no engine queries; the aggregate test is vacuous")
	}
	if got := s.Stats().Engine; got != want {
		t.Errorf("engine aggregate %+v, want the single compile's %+v", got, want)
	}
	if _, err := s.Compile(context.Background(), g, serviceOpts(2)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine; got != want {
		t.Errorf("engine aggregate %+v after a cache hit, want unchanged %+v", got, want)
	}
}

// TestServiceCancelledWaiterReturnsPromptly: a caller whose context is
// cancelled while it waits on another caller's in-flight compilation (the
// singleflight leader) must return its context error immediately — it must
// not block until the leader finishes.
func TestServiceCancelledWaiterReturnsPromptly(t *testing.T) {
	s := NewService(ServiceConfig{})
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	block := make(chan struct{})
	real := s.compileFn
	s.compileFn = func(ctx context.Context, g *sdf.Graph, opts driver.Options) (*driver.Compiled, error) {
		close(started)
		<-block
		return real(ctx, g, opts)
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Compile(context.Background(), g, serviceOpts(2))
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.Compile(ctx, g, serviceOpts(2))
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter blocked on the leader's compile")
	}

	close(block)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	// The abandoned waiter counted as a hit (it joined the entry) and the
	// leader's result is cached and intact for the next caller.
	if _, err := s.Compile(context.Background(), g, serviceOpts(2)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats %+v, want 1 miss / 2 hits", st)
	}
}

// TestServiceNormalizesKeys: a zero-value request and its explicit-default
// twin are one cache entry.
func TestServiceNormalizesKeys(t *testing.T) {
	s := NewService(ServiceConfig{})
	app, _ := apps.ByName("FFT")
	g, err := apps.BuildGraph(app, 16)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Compile(context.Background(), g, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Compile(context.Background(), g, driver.Options{
		Topo:          topology.PairedTree(1),
		FragmentIters: 512,
		Workers:       3, // must not split the key either
	})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("explicit defaults missed the zero-value entry")
	}
}

func TestServiceDoesNotCacheErrors(t *testing.T) {
	s := NewService(ServiceConfig{})
	app, _ := apps.ByName("DES")
	g, err := apps.BuildGraph(app, 8)
	if err != nil {
		t.Fatal(err)
	}
	bad := serviceOpts(2)
	bad.Partitioner = driver.PartitionerKind(99)
	if _, err := s.Compile(context.Background(), g, bad); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Errorf("failed compilation cached: %+v", st)
	}
}
