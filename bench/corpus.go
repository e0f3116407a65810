package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/server"
	"streammap/internal/synth"
)

// Corpus bounds shared by the three serving workloads: graphs big enough
// that body decode, graph import, fingerprinting and the response write —
// not the HTTP floor — are what a cache hit costs.
const (
	corpusMaxFilters = 400
	corpusMaxGPUs    = 4
	corpusMinFilters = 16
)

// scenario is one request the generator can offer: its pre-marshalled body
// and what the library, called directly, compiles it to.
type scenario struct {
	name  string
	nodes int
	body  []byte
	hash  string             // core.KeyHash of the compile's identity
	ref   *artifact.Artifact // local reference compile
}

// pick draws `need` feasible scenarios from the synth.Corpus stream named by
// seed, stratified by size: the filter range is cut into `strata` equal
// bins and each bin gets need/strata scenarios, the first in stream order
// that fit. Seeds therefore change every graph, topology and option draw
// but not the size profile of the set, which is what the cost of serving it
// depends on — so numbers from different seeds are comparable.
//
// Every accepted scenario is compiled locally once (the pre-flight).
// synth.Corpus can draw scenarios the compiler rightly rejects (a
// single-partition request for a graph that cannot fit shared memory);
// those are dropped and the stream supplies the replacement, so failures
// the benchmark counts are the server's, not the generator's. The second
// result is how many were dropped.
func pick(ctx context.Context, seed uint64, need, strata, minFilters, maxFilters int) ([]*scenario, int, error) {
	if need%strata != 0 {
		return nil, 0, fmt.Errorf("corpus: %d scenarios do not divide into %d strata", need, strata)
	}
	quota := make([]int, strata)
	for i := range quota {
		quota[i] = need / strata
	}
	stratum := func(filters int) int {
		return (filters - minFilters) * strata / (maxFilters + 1 - minFilters)
	}

	var out []*scenario
	infeasible, next := 0, 0
	for size := 4 * need; len(out) < need; size *= 2 {
		// Scenario i does not depend on the corpus size, so growing the
		// corpus continues the same stream.
		if size > 1<<16 {
			return nil, 0, fmt.Errorf("corpus: seed %d fills only %d of %d scenarios in %d draws", seed, len(out), need, next)
		}
		stream, err := synth.Corpus(synth.CorpusParams{
			Seed: seed, Scenarios: size, MaxFilters: corpusMaxFilters, MaxGPUs: corpusMaxGPUs, Workers: 1,
		})
		if err != nil {
			return nil, 0, err
		}
		var batch []*synth.Scenario
		for ; next < len(stream); next++ {
			sc := stream[next]
			if f := sc.GraphP.Filters; f >= minFilters && f <= maxFilters && quota[stratum(f)] > 0 {
				quota[stratum(f)]--
				batch = append(batch, sc)
			}
		}
		scs, errs := preflight(ctx, batch)
		for i, sc := range scs {
			if errs[i] != nil {
				if ctx.Err() != nil {
					return nil, 0, ctx.Err()
				}
				if errors.Is(errs[i], errClockGuard) {
					return nil, 0, errs[i]
				}
				infeasible++
				quota[stratum(batch[i].GraphP.Filters)]++
				continue
			}
			out = append(out, sc)
		}
	}
	return out, infeasible, nil
}

// preflight builds, marshals and reference-compiles a batch on every core.
func preflight(ctx context.Context, batch []*synth.Scenario) ([]*scenario, []error) {
	out := make([]*scenario, len(batch))
	errs := make([]error, len(batch))
	var wg sync.WaitGroup
	feed := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				out[i], errs[i] = reference(ctx, batch[i])
			}
		}()
	}
	for i := range batch {
		feed <- i
	}
	close(feed)
	wg.Wait()
	return out, errs
}

// reference compiles one scenario through the library, as the oracle the
// served artifacts are compared with.
func reference(ctx context.Context, sc *synth.Scenario) (*scenario, error) {
	g, err := sc.BuildGraph()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(server.NewRequest(g, sc.Opts))
	if err != nil {
		return nil, err
	}
	c, err := driver.Compile(ctx, g, sc.Opts)
	if err != nil {
		return nil, err
	}
	if err := clockGuard(sc.Name, c); err != nil {
		return nil, err
	}
	a, err := c.Artifact()
	if err != nil {
		return nil, err
	}
	key, err := core.KeyOf(g, sc.Opts)
	if err != nil {
		return nil, err
	}
	return &scenario{name: sc.Name, nodes: g.NumNodes(), body: body, hash: core.KeyHash(key), ref: a}, nil
}

var errClockGuard = errors.New("clock guard")

// clockGuard fails a compile whose exact mapping solve used more than half
// its time budget: a truncated ILP returns whatever incumbent the wall clock
// left it with, and a result that depends on the clock is not a
// measurement. Compiles too large for the ILP never read the clock.
func clockGuard(name string, c *driver.Compiled) error {
	mo := c.Options.MapOptions.Normalized()
	if c.Options.Mapper != driver.ILPMapper || (len(c.Parts.Parts) > mo.ILPMaxParts && !mo.ForceILP) {
		return nil
	}
	if d := c.StageDuration("map"); d > mo.TimeBudget/2 {
		return fmt.Errorf("%w: %s: map stage took %v, more than half its %v budget", errClockGuard, name, d, mo.TimeBudget)
	}
	return nil
}
