package core_test

import (
	"context"
	"sync"
	"testing"

	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/sdf"
	"streammap/internal/synth"
)

// TestServiceRaceStress hammers one compile service from many goroutines
// with an overlapping synthetic corpus (each goroutine walks the scenarios
// in a different rotation, maximizing concurrent duplicate requests) and
// asserts the cache contract: every caller of the same scenario gets the
// same *Compiled, each unique scenario compiles exactly once (singleflight),
// and the hit/miss counters add up. Run under -race in CI, this is the
// concurrency soak for the serving layer.
func TestServiceRaceStress(t *testing.T) {
	corpus, err := synth.Corpus(synth.CorpusParams{
		Seed: 0xACE, Scenarios: 10, MaxFilters: 14, MaxGPUs: 4, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One shared graph per scenario: concurrent requests race on the lazy
	// steady-state computation and on the cache key path too.
	graphs := make([]*sdf.Graph, len(corpus))
	for i, sc := range corpus {
		if graphs[i], err = sc.BuildGraph(); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}

	svc := core.NewService(core.ServiceConfig{MaxEntries: 64, MaxConcurrent: 4})
	const goroutines = 16
	results := make([][]*driver.Compiled, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			results[gid] = make([]*driver.Compiled, len(corpus))
			for k := range corpus {
				i := (k + gid) % len(corpus)
				c, err := svc.Compile(context.Background(), graphs[i], corpus[i].Opts)
				if err != nil {
					errs[gid] = err
					return
				}
				results[gid][i] = c
			}
		}(gid)
	}
	wg.Wait()
	for gid, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", gid, err)
		}
	}

	for i := range corpus {
		first := results[0][i]
		if first == nil {
			t.Fatalf("scenario %d missing a result", i)
		}
		for gid := 1; gid < goroutines; gid++ {
			if results[gid][i] != first {
				t.Errorf("scenario %d: goroutine %d received a different *Compiled — cache returned divergent results", i, gid)
			}
		}
	}

	st := svc.Stats()
	total := int64(goroutines * len(corpus))
	if st.Hits+st.Misses != total {
		t.Errorf("hits %d + misses %d != %d requests", st.Hits, st.Misses, total)
	}
	if st.Misses != int64(len(corpus)) {
		t.Errorf("%d misses for %d unique scenarios: singleflight dedup failed", st.Misses, len(corpus))
	}
	if st.Entries != len(corpus) {
		t.Errorf("%d cache entries, want %d", st.Entries, len(corpus))
	}
	if st.Evictions != 0 {
		t.Errorf("%d evictions with an oversized cache", st.Evictions)
	}
}
