package synth

import (
	"fmt"
	"time"

	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
)

// Scenario is one generated compilation instance: the parameters to
// regenerate its graph (kept as parameters, not a built graph, so the
// differential harness can rebuild twins and cross-check generator
// determinism), plus the topology and driver options to compile under.
type Scenario struct {
	Name   string
	GraphP GraphParams
	TopoP  TopoParams
	Opts   driver.Options // Topo is pre-built; immutable and shareable
}

// BuildGraph regenerates the scenario's stream graph.
func (sc *Scenario) BuildGraph() (*sdf.Graph, error) { return BuildGraph(sc.GraphP) }

// CorpusParams seeds a scenario family.
type CorpusParams struct {
	Seed      uint64
	Scenarios int // default 64
	// MaxFilters bounds per-graph filter targets (default 24). Generation
	// itself scales to thousands of filters; corpora meant for exhaustive
	// differential checking stay small enough that hundreds of scenarios
	// compile twice within normal test time.
	MaxFilters int
	// MaxGPUs bounds generated machine sizes (default 8).
	MaxGPUs int
	// Workers is the pipeline worker-pool bound per compilation (default
	// 4 — enough to exercise the concurrent passes without oversubscribing
	// when many scenarios compile in parallel).
	Workers int
}

func (p CorpusParams) withDefaults() CorpusParams {
	if p.Scenarios <= 0 {
		p.Scenarios = 64
	}
	if p.MaxFilters < 3 {
		p.MaxFilters = 24
	}
	if p.MaxGPUs <= 0 {
		p.MaxGPUs = 8
	}
	if p.Workers <= 0 {
		p.Workers = 4
	}
	return p
}

// Corpus derives a deterministic scenario family from one seed. Each
// scenario gets an independent sub-seed (forked, so scenario i is invariant
// to the corpus size), a generated graph spec, a generated topology and a
// draw over devices, partitioners, mappers and fragment sizes.
//
// Mapping options pin the exact solver to instances of at most four
// partitions (ILPMaxParts 4); larger instances take the local-search
// portfolio. Every solver leg is deterministic — the exact solver's budget
// is a node count — so serial and pipelined compilations are comparable bit
// for bit, which is the whole point of the corpus.
func Corpus(p CorpusParams) ([]*Scenario, error) {
	p = p.withDefaults()
	r := newRNG(p.Seed)
	out := make([]*Scenario, 0, p.Scenarios)
	for i := 0; i < p.Scenarios; i++ {
		sr := r.fork()
		gp := GraphParams{
			Seed:     sr.next(),
			Filters:  sr.rangeInt(3, p.MaxFilters),
			MaxWidth: sr.rangeInt(2, 5),
			MaxDepth: sr.rangeInt(2, 4),
			// Draw rates and work over wide ranges: high-rate multi-rate
			// graphs inflate merged-subgraph buffers until the shared-memory
			// cap splits them, and heavy filters make workload balance
			// matter — both are needed to exercise multi-partition mappings
			// rather than single-kernel collapses.
			MaxRate:  sr.rangeInt(2, 16),
			MaxOps:   []int64{64, 512, 4096}[sr.intn(3)],
			SkewWork: sr.bool(0.5),
		}
		tp := TopoParams{
			Seed:     sr.next(),
			GPUs:     sr.rangeInt(1, p.MaxGPUs),
			MaxDepth: sr.rangeInt(1, 4),
		}
		topo, err := BuildTopology(tp)
		if err != nil {
			return nil, fmt.Errorf("synth: corpus scenario %d: %w", i, err)
		}

		dev := gpu.M2090()
		if sr.bool(0.5) {
			dev = gpu.C2070()
		}
		part := driver.Alg1
		switch roll := sr.intn(100); {
		case roll >= 85:
			part = driver.SinglePart
		case roll >= 70:
			part = driver.PrevWorkPart
		}
		mapper := driver.ILPMapper
		if sr.bool(0.25) {
			mapper = driver.PrevWorkMap
		}
		fragIters := 128
		if sr.bool(0.5) {
			fragIters = 512
		}

		out = append(out, &Scenario{
			Name:   fmt.Sprintf("s%03d-f%d-g%d-p%d-m%d", i, gp.Filters, tp.GPUs, part, mapper),
			GraphP: gp,
			TopoP:  tp,
			Opts: driver.Options{
				Device:        dev,
				Topo:          topo,
				FragmentIters: fragIters,
				Partitioner:   part,
				Mapper:        mapper,
				// The pin dates from an exact solver that stopped on the
				// wall clock; it stays because these options are in every
				// scenario's key and recorded golden.
				MapOptions: mapping.Options{
					ILPMaxParts: 4,
					TimeBudget:  60 * time.Second,
				},
				Workers: p.Workers,
			},
		})
	}
	return out, nil
}
