package synth

import (
	"context"
	"runtime"
	"testing"

	"streammap/internal/driver"
)

// corpusSize is the acceptance bar: this many generated (graph, topology)
// scenarios must pass the serial-vs-pipeline differential check and every
// structural invariant on each `go test ./...`.
const corpusSize = 200

// TestDifferentialCorpus is the headline harness: a seeded corpus of
// scenarios — random graphs on random hierarchical topologies across
// devices, partitioners, mappers and fragment sizes — each compiled through
// both flows and cross-checked. Two corpora run, on two seeds; the second
// (its shards' names carry its seed) is the fixed one CI ran through the
// command line. Scenarios are sharded over parallel subtests; each shard is
// independent, so failures name their scenario.
func TestDifferentialCorpus(t *testing.T) {
	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	for _, in := range []struct {
		prefix string
		params CorpusParams
	}{
		{"", CorpusParams{Seed: 0x5EED, Scenarios: corpusSize, MaxFilters: 28, Workers: 2}},
		{"0xC1-", CorpusParams{Seed: 0xC1, Scenarios: 50, MaxFilters: 28, MaxGPUs: 8, Workers: 2}},
	} {
		corpus, err := Corpus(in.params)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			t.Run(in.prefix+corpus[s].Name[:4], func(t *testing.T) {
				t.Parallel()
				for i := s; i < len(corpus); i += shards {
					if err := Check(context.Background(), corpus[i]); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestCheckRejectsCorruption guards the harness against vacuous passes:
// deliberately corrupted artifacts must be caught by the invariant checker
// and by the equivalence comparator.
func TestCheckRejectsCorruption(t *testing.T) {
	corpus, err := Corpus(CorpusParams{Seed: 11, Scenarios: 24, MaxFilters: 24, MaxGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sc *Scenario
	var c *driver.Compiled
	for _, cand := range corpus {
		g, err := cand.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		cc, err := driver.Compile(context.Background(), g, cand.Opts)
		if err != nil {
			continue
		}
		if len(cc.Parts.Parts) >= 2 && cand.Opts.Topo.NumGPUs() >= 2 {
			sc, c = cand, cc
			break
		}
	}
	if c == nil {
		t.Fatal("no corpus scenario with >=2 partitions and >=2 GPUs; enlarge the sample")
	}

	if err := CheckInvariants(c); err != nil {
		t.Fatalf("%s: clean compilation rejected: %v", sc.Name, err)
	}

	// Corrupt the assignment: recorded cost and link loads no longer
	// reproduce under re-evaluation.
	orig := c.Assign.GPUOf[0]
	c.Assign.GPUOf[0] = (orig + 1) % sc.Opts.Topo.NumGPUs()
	if err := CheckInvariants(c); err == nil {
		t.Error("corrupted assignment passed the invariant check")
	}
	c.Assign.GPUOf[0] = orig

	// Corrupt the plan/assignment agreement.
	c.Plan.GPUOf = append([]int(nil), c.Assign.GPUOf...)
	c.Plan.GPUOf[0] = (orig + 1) % sc.Opts.Topo.NumGPUs()
	if err := CheckInvariants(c); err == nil {
		t.Error("plan disagreeing with assignment passed the invariant check")
	}
	c.Plan.GPUOf[0] = orig

	// Equivalence must reject a compilation of a different scenario.
	g2, err := BuildGraph(GraphParams{Seed: sc.GraphP.Seed + 1, Filters: sc.GraphP.Filters + 3})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := driver.Compile(context.Background(), g2, sc.Opts)
	if err != nil {
		t.Skipf("alternate scenario did not compile: %v", err)
	}
	if err := driver.Equivalent(c, c2); err == nil {
		t.Error("Equivalent accepted compilations of different graphs")
	}
}
