package mapping_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/mapping"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// compiledProblems returns the mapping problems the compiler produces for
// the eight paper apps (the benchmark's compile-apps sizes) re-targeted at 2,
// 3 and 4 GPUs, and for a slice of the differential corpus on its own
// generated topologies. The mapper is the cheap baseline: only the problem
// — PDG and partition times — is wanted, and no mapper shapes it.
func compiledProblems(t *testing.T) map[string]*mapping.Problem {
	t.Helper()
	out := map[string]*mapping.Problem{}
	for _, pc := range []struct {
		app string
		n   int
	}{
		{"DES", 32}, {"FMRadio", 32}, {"FFT", 512}, {"DCT", 30},
		{"MatMul2", 8}, {"MatMul3", 6}, {"BitonicRec", 64}, {"Bitonic", 64},
	} {
		app, ok := apps.ByName(pc.app)
		if !ok {
			t.Fatalf("no app %q", pc.app)
		}
		g, err := apps.BuildGraph(app, pc.n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := driver.Compile(context.Background(), g, driver.Options{Topo: topology.PairedTree(4), Mapper: driver.PrevWorkMap})
		if err != nil {
			t.Fatal(err)
		}
		for _, gpus := range []int{2, 3, 4} {
			q := *c.Problem
			q.Topo = topology.PairedTree(gpus)
			out[fmt.Sprintf("%s-%d/%dgpu", pc.app, pc.n, gpus)] = &q
		}
	}
	corpus, err := synth.Corpus(synth.CorpusParams{Seed: 0x5EED, Scenarios: 60, MaxFilters: 28})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range corpus {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		opts := sc.Opts
		opts.Mapper = driver.PrevWorkMap
		c, err := driver.Compile(context.Background(), g, opts)
		if err != nil {
			continue // a rejected scenario has no mapping problem
		}
		out[sc.Name] = c.Problem
	}
	return out
}

// descentPair runs the production descent and the rescan referee from every
// cold seed of p under both transfer models and hands each pair to check.
func descentPair(p *mapping.Problem, check func(what string, got, want *mapping.Assignment, budgetCut bool)) {
	for _, viaHost := range []bool{false, true} {
		q := *p
		q.ViaHost = viaHost
		for s, seed := range mapping.ColdSeeds(&q, mapping.Greedy(&q).GPUOf) {
			got, cut, _ := mapping.DescendDelta(context.Background(), &q, seed)
			want := mapping.DescendRescan(context.Background(), &q, seed)
			check(fmt.Sprintf("viaHost=%t seed %d", viaHost, s), got, want, cut)
		}
	}
}

// sameDescent reports the same placement and the same objective bits.
func sameDescent(a, b *mapping.Assignment) bool {
	return slices.Equal(a.GPUOf, b.GPUOf) && math.Float64bits(a.Objective) == math.Float64bits(b.Objective)
}

// TestDescentMatchesRescan is the referee for the descent that was deleted
// when descendDelta became the only one (DESIGN.md S5). On problems the
// compiler produces the two must agree exactly — same placement, same
// objective bits — and so must they on the random-weight descentProblem
// family up to 120 partitions. Above that the family includes partition
// times scaled until objectives reach ~2·10^6 µs, where one ulp (2·10^-10)
// is within a few rejected candidates' rounding residue of the 1e-9
// acceptance threshold: there the incremental per-GPU sums can tip a
// comparison the from-scratch sums do not (and the evaluation budget can
// stop a descent the referee runs to quiescence), the two descents part
// ways and end in different local optima — held to within 1e-3 of the
// objective, either way; the worst measured is 1.3e-4.
func TestDescentMatchesRescan(t *testing.T) {
	t.Run("compiled", func(t *testing.T) {
		t.Parallel()
		descents := 0
		for name, p := range compiledProblems(t) {
			descentPair(p, func(what string, got, want *mapping.Assignment, cut bool) {
				descents++
				if cut {
					t.Errorf("%s %s: budget cut a compiler-sized descent", name, what)
				}
				if !sameDescent(got, want) {
					t.Errorf("%s %s: objective %v, rescan descent %v (placements equal: %t)",
						name, what, got.Objective, want.Objective, slices.Equal(got.GPUOf, want.GPUOf))
				}
			})
		}
		t.Logf("%d descents on compiler-produced problems, all identical", descents)
	})
	t.Run("random-weights", func(t *testing.T) {
		t.Parallel()
		descents, differed, cuts := 0, 0, 0
		worst := 0.0
		for _, n := range []int{24, 60, 120, 250, 400} {
			// The rescan referee is O(n^3) a sweep: the large sizes keep
			// only the cells where the two descents were seen to part.
			gpuCounts, scales := []int{2, 4}, []float64{10, 1e4}
			if n > 120 {
				gpuCounts, scales = []int{4}, []float64{1e4}
			}
			for _, gpus := range gpuCounts {
				for _, seed := range []uint64{0xD15C, 0xBEEF} {
					for _, maxUS := range scales {
						p := mapping.DescentProblem(t, n, gpus, maxUS, seed)
						descentPair(p, func(what string, got, want *mapping.Assignment, cut bool) {
							descents++
							if cut {
								cuts++
							}
							if sameDescent(got, want) {
								return
							}
							differed++
							rel := math.Abs(got.Objective-want.Objective) / want.Objective
							worst = math.Max(worst, rel)
							if n <= 120 || rel > 1e-3 {
								t.Errorf("n=%d gpus=%d seed=%#x maxUS=%v %s: objective %v, rescan descent %v (relative %.2e)",
									n, gpus, seed, maxUS, what, got.Objective, want.Objective, rel)
							}
						})
					}
				}
			}
		}
		t.Logf("%d descents: %d differed (worst relative objective difference %.2e), %d budget-cut", descents, differed, worst, cuts)
	})
}
