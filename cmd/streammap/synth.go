package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"streammap/internal/core"
	"streammap/internal/synth"
)

// synthFlags collects the -synth mode knobs.
type synthFlags struct {
	scenarios int
	seed      uint64
	filters   int
	gpus      int
	check     bool
}

// runSynth generates a seeded corpus of (graph, topology, options)
// scenarios and compiles it concurrently through one core.Service, printing
// a per-scenario line and the service's cache statistics. With -synth-check
// each scenario additionally runs the differential harness: the pipeline at
// one worker vs. at two plus all structural invariants — the command-line
// entry point to the same machinery the test suite runs on its fixed
// corpus.
func runSynth(f synthFlags) error {
	corpus, err := synth.Corpus(synth.CorpusParams{
		Seed:       f.seed,
		Scenarios:  f.scenarios,
		MaxFilters: f.filters,
		MaxGPUs:    f.gpus,
		Workers:    2,
	})
	if err != nil {
		return err
	}

	svc := core.NewService(core.ServiceConfig{})
	type outcome struct {
		nodes, parts int
		tmax         float64
		method       string
		dur          time.Duration
		diff         error
		err          error
	}
	results := make([]outcome, len(corpus))
	start := time.Now()
	var wg sync.WaitGroup
	for i, sc := range corpus {
		wg.Add(1)
		go func(i int, sc *synth.Scenario) {
			defer wg.Done()
			g, err := sc.BuildGraph()
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			t0 := time.Now()
			c, err := svc.Compile(context.Background(), g, sc.Opts)
			if err != nil {
				o := outcome{nodes: g.NumNodes(), err: err}
				if f.check {
					// The harness must see rejections too: "pipeline fails
					// but serial succeeds" is a divergence, while an agreed
					// rejection passes.
					o.diff = synth.Check(context.Background(), sc)
				}
				results[i] = o
				return
			}
			o := outcome{
				nodes:  g.NumNodes(),
				parts:  len(c.Parts.Parts),
				tmax:   c.Assign.Objective,
				method: c.Assign.Method,
				dur:    time.Since(t0),
			}
			if f.check {
				o.diff = synth.Check(context.Background(), sc)
			}
			results[i] = o
		}(i, sc)
	}
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("%-22s %6s %6s %7s %10s %-10s %10s%s\n",
		"scenario", "nodes", "gpus", "#parts", "Tmax(us)", "method", "latency",
		map[bool]string{true: "  differential", false: ""}[f.check])
	failures := 0
	for i, sc := range corpus {
		r := results[i]
		if r.err != nil {
			// Scenarios the compiler rejects (e.g. single-partition mode on
			// a graph that cannot fit in shared memory) are reported, not
			// fatal: the corpus deliberately includes them. Under -synth-check
			// the harness still verifies both flows agree on the rejection.
			line := fmt.Sprintf("%-22s %6d %6d  rejected: %v", sc.Name, r.nodes, sc.Opts.Topo.NumGPUs(), r.err)
			if f.check {
				if r.diff != nil {
					failures++
					line += "  FAIL: " + r.diff.Error()
				} else {
					line += "  ok (both flows reject)"
				}
			}
			fmt.Println(line)
			continue
		}
		line := fmt.Sprintf("%-22s %6d %6d %7d %10.1f %-10s %10s",
			sc.Name, r.nodes, sc.Opts.Topo.NumGPUs(), r.parts, r.tmax, r.method, r.dur.Round(time.Microsecond))
		if f.check {
			if r.diff != nil {
				failures++
				line += "  FAIL: " + r.diff.Error()
			} else {
				line += "  ok"
			}
		}
		fmt.Println(line)
	}

	st := svc.Stats()
	fmt.Printf("\nsynth: %d scenarios (seed %d) in %s — cache: %d hits, %d misses, %d entries\n",
		len(corpus), f.seed, wall.Round(time.Millisecond), st.Hits, st.Misses, st.Entries)
	if f.check {
		if failures > 0 {
			return fmt.Errorf("%d of %d scenarios failed the differential check", failures, len(corpus))
		}
		fmt.Printf("differential: all %d scenarios passed (Workers=1 == Workers=2, invariants hold)\n", len(corpus))
	}
	return nil
}

// parseSeed accepts decimal or 0x-prefixed hex, rejecting trailing garbage.
func parseSeed(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad seed %q: %w", s, err)
	}
	return v, nil
}
