package partition

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"streammap/internal/apps"
	"streammap/internal/gpu"
	"streammap/internal/pee"
	"streammap/internal/sdf"
)

func copyFilter(name string, n int) *sdf.Filter {
	return sdf.NewFilter(name, n, n, 0, int64(n), func(w *sdf.Work) {
		copy(w.Out[0], w.In[0][:n])
	})
}

func hotFilter(name string, n int, ops int64) *sdf.Filter {
	return sdf.NewFilter(name, n, n, 0, ops, func(w *sdf.Work) {
		copy(w.Out[0], w.In[0][:n])
	})
}

func engineFor(t *testing.T, g *sdf.Graph) *pee.Engine {
	t.Helper()
	return pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
}

func runAlg1(t *testing.T, name string, s sdf.Stream) *Result {
	t.Helper()
	g, err := sdf.Flatten(name, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), g, engineFor(t, g), 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIOBoundPipelineMergesToOne(t *testing.T) {
	res := runAlg1(t, "io", sdf.Pipe("p",
		sdf.F(copyFilter("a", 8)), sdf.F(copyFilter("b", 8)),
		sdf.F(copyFilter("c", 8)), sdf.F(copyFilter("d", 8))))
	if len(res.Parts) != 1 {
		t.Errorf("IO-bound pipeline produced %d partitions, want 1", len(res.Parts))
	}
}

func TestComputeBoundSplitJoinStaysSplit(t *testing.T) {
	// Wide compute-heavy split-join branches: merging them stacks their
	// branch buffers (Figure 3.2), slashing W, so Algorithm 1 must refuse
	// the merges and keep the branches as separate kernels.
	res := runAlg1(t, "hot", sdf.SplitDupRR("sj", 512, []int{512, 512, 512, 512},
		sdf.F(hotFilter("h0", 512, 3000000)), sdf.F(hotFilter("h1", 512, 3000000)),
		sdf.F(hotFilter("h2", 512, 3000000)), sdf.F(hotFilter("h3", 512, 3000000))))
	if len(res.Parts) < 4 {
		t.Errorf("compute-bound split-join merged to %d partitions; expected it to stay split", len(res.Parts))
	}
	hot := 0
	for _, p := range res.Parts {
		if p.Est.ComputeBound() {
			hot++
		}
	}
	if hot < 4 {
		t.Errorf("expected at least the 4 branch partitions to be compute-bound, got %d", hot)
	}
}

func TestComputeBoundPipelineStaysSplitToo(t *testing.T) {
	// Under static SM allocation, merging chained compute-heavy filters
	// grows the kernel footprint and cuts W, so even pipelines of hot
	// filters refuse to merge — this is what makes the paper's DES keep one
	// partition per round.
	res := runAlg1(t, "hotpipe", sdf.Pipe("p",
		sdf.F(hotFilter("a", 256, 3000000)), sdf.F(hotFilter("b", 256, 3000000)),
		sdf.F(hotFilter("c", 256, 3000000)), sdf.F(hotFilter("d", 256, 3000000))))
	if len(res.Parts) < 3 {
		t.Errorf("compute-bound pipeline merged to %d partitions; expected it to stay split", len(res.Parts))
	}
}

func TestSplitJoinStructure(t *testing.T) {
	res := runAlg1(t, "sj", sdf.SplitDupRR("sj", 8, []int{8, 8},
		sdf.Pipe("b0", sdf.F(copyFilter("a0", 8)), sdf.F(copyFilter("a1", 8))),
		sdf.Pipe("b1", sdf.F(copyFilter("b0", 8)), sdf.F(copyFilter("b1", 8)))))
	// All IO-bound: should collapse substantially (at most 2 partitions).
	if len(res.Parts) > 2 {
		t.Errorf("IO-bound split-join produced %d partitions", len(res.Parts))
	}
}

func TestPhaseCountsMonotonic(t *testing.T) {
	res := runAlg1(t, "mix", sdf.Pipe("p",
		sdf.F(copyFilter("pre", 16)),
		sdf.SplitDupRR("sj", 16, []int{16, 16},
			sdf.F(hotFilter("h0", 16, 40000)),
			sdf.F(hotFilter("h1", 16, 40000))),
		sdf.F(copyFilter("post", 32))))
	// After phase 2 all nodes are assigned; phases 3 and 4 only merge.
	if res.CountAfterPhase[3] > res.CountAfterPhase[2] {
		t.Errorf("phase 3 increased partitions: %v", res.CountAfterPhase)
	}
	if res.CountAfterPhase[4] > res.CountAfterPhase[3] {
		t.Errorf("phase 4 increased partitions: %v", res.CountAfterPhase)
	}
}

func TestFeedbackLoopAtomic(t *testing.T) {
	body := sdf.NewFilter("acc", 2, 2, 0, 3, func(w *sdf.Work) {
		s := w.In[0][0] + w.In[0][1]
		w.Out[0][0], w.Out[0][1] = s, s
	})
	loop := sdf.LoopOf("acc", sdf.RoundRobinJoiner([]int{1, 1}), sdf.F(body),
		sdf.RoundRobinSplitter([]int{1, 1}), nil, []sdf.Token{0})
	g, err := sdf.Flatten("loop", sdf.Pipe("p", sdf.F(copyFilter("pre", 1)), loop))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), g, engineFor(t, g), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The joiner/body/splitter cycle must share one partition.
	var loopPart *Partition
	for _, p := range res.Parts {
		for _, m := range p.Members {
			if g.Nodes[m].Filter.Name == "acc" {
				loopPart = p
			}
		}
	}
	if loopPart == nil {
		t.Fatal("loop body not in any partition")
	}
	cnt := 0
	for _, m := range loopPart.Members {
		k := g.Nodes[m].Filter.Kind
		if k == sdf.KindJoiner || k == sdf.KindSplitter || g.Nodes[m].Filter.Name == "acc" {
			cnt++
		}
	}
	if cnt < 3 {
		t.Errorf("feedback loop split across partitions: %v", loopPart.Members)
	}
}

func TestMultiPartitionNoWorseThanSingle(t *testing.T) {
	// Phase 4(2) guarantee.
	res := runAlg1(t, "guar", sdf.Pipe("p",
		sdf.F(copyFilter("a", 4)), sdf.F(hotFilter("b", 4, 100000)), sdf.F(copyFilter("c", 4))))
	g := res.Graph
	eng := engineFor(t, g)
	single, err := SinglePartition(g, eng)
	if err != nil {
		t.Fatal(err)
	}
	var total float64 // the quantity Algorithm 1 greedily minimizes
	for _, p := range res.Parts {
		total += p.TWus()
	}
	if total > single.Parts[0].TWus()*1.0001 {
		t.Errorf("multi-partition total %v worse than single %v", total, single.Parts[0].TWus())
	}
}

func TestPrevWorkMergesUntilSMViolated(t *testing.T) {
	// A chain of wide split-joins (DES-round-like): branch buffers stack, so
	// the whole graph cannot fit one SM. PrevWork must produce >1
	// partitions, each within SM.
	d := gpu.M2090()
	var stages []sdf.Stream
	for i := 0; i < 4; i++ {
		stages = append(stages, sdf.SplitDupRR("sj", 512, []int{512, 512},
			sdf.F(copyFilter("l"+string(rune('a'+i)), 512)),
			sdf.F(copyFilter("r"+string(rune('a'+i)), 512))))
	}
	g, err := sdf.Flatten("wide", sdf.Pipe("p", stages...))
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, g)
	res, err := PrevWork(g, eng, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) < 2 {
		t.Errorf("prevwork produced %d partitions; SM should force a split", len(res.Parts))
	}
	for _, p := range res.Parts {
		if p.Est.SMBytes > d.SharedMemPerSM {
			t.Errorf("prevwork partition exceeds SM: %d", p.Est.SMBytes)
		}
	}
}

func TestPrevWorkIgnoresComputeBoundedness(t *testing.T) {
	// Compute-heavy split-join that fits one SM: Algorithm 1 refuses the
	// merges (time would regress), the previous work happily merges
	// everything into one partition. This is the paper's "kernel count
	// ratio" effect.
	s := sdf.SplitDupRR("sj", 512, []int{512, 512},
		sdf.F(hotFilter("a", 512, 3000000)), sdf.F(hotFilter("b", 512, 3000000)))
	g, err := sdf.Flatten("hot", s)
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, g)
	prev, err := PrevWork(g, eng, gpu.M2090())
	if err != nil {
		t.Fatal(err)
	}
	ours, err := RunCtx(context.Background(), g, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Parts) != 1 {
		t.Errorf("prevwork partitions = %d, want 1", len(prev.Parts))
	}
	if len(ours.Parts) <= len(prev.Parts) {
		t.Errorf("kernel count ratio should exceed 1 for compute-bound apps: ours %d vs prev %d",
			len(ours.Parts), len(prev.Parts))
	}
}

func TestSinglePartitionInfeasibleForHugeGraph(t *testing.T) {
	// Stateful filters: persistent state lives the whole schedule, so four
	// together exceed 48KB even though each alone fits comfortably.
	stateful := func(name string) *sdf.Filter {
		f := copyFilter(name, 1000)
		f.Init = make([]sdf.Token, 2500)
		return f
	}
	g, err := sdf.Flatten("huge", sdf.Pipe("p",
		sdf.F(stateful("a")), sdf.F(stateful("b")),
		sdf.F(stateful("c")), sdf.F(stateful("d"))))
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, g)
	if _, err := SinglePartition(g, eng); err == nil {
		t.Fatal("expected infeasibility for 48KB-exceeding single partition")
	}
	// Algorithm 1 must still find a valid multi-partition answer.
	res, err := RunCtx(context.Background(), g, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) < 2 {
		t.Errorf("expected a split, got %d partitions", len(res.Parts))
	}
}

// Property: Algorithm 1 always returns a valid partitioning (cover, convex,
// connected) on random two-branch split-join graphs with mixed costs.
func TestRunInvariantsQuick(t *testing.T) {
	f := func(opsRaw [4]uint16, width uint8) bool {
		w := int(width)%16 + 1
		mk := func(i int, ops uint16) sdf.Stream {
			return sdf.F(hotFilter("f"+string(rune('a'+i)), w, int64(ops)%20000+1))
		}
		s := sdf.Pipe("p",
			mk(0, opsRaw[0]),
			sdf.SplitDupRR("sj", w, []int{w, w}, mk(1, opsRaw[1]), mk(2, opsRaw[2])),
			mk(3, opsRaw[3]))
		g, err := sdf.Flatten("q", s)
		if err != nil {
			return false
		}
		res, err := RunCtx(context.Background(), g, pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090())), 1)
		if err != nil {
			return false
		}
		covered := sdf.NewNodeSet(g.NumNodes())
		for _, p := range res.Parts {
			set := sdf.NewNodeSet(g.NumNodes())
			for _, m := range p.Members {
				if covered.Has(m) {
					return false
				}
				covered.Add(m)
				set.Add(m)
			}
			if !g.IsConvex(set) || !g.IsConnected(set) {
				return false
			}
		}
		return covered.Len() == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// appGraph builds one paper app at size n.
func appGraph(t *testing.T, name string, n int) *sdf.Graph {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	g, err := apps.BuildGraph(app, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPartitionerEngineWork pins the engine work Algorithm 1 does on the
// paper apps, exactly (the values measured before phase 1 lost its chain
// fan-out), at every worker bound: a scan settles only what the serial
// scan asks, so speculative scoring that leaks into the engine — such as
// a Try-Merge prewarm of every eligible union — moves these counts.
func TestPartitionerEngineWork(t *testing.T) {
	for _, tc := range []struct {
		app  string
		n    int
		want pee.Stats
	}{
		{"DES", 32, pee.Stats{Queries: 1372, Misses: 925}},
		{"FMRadio", 32, pee.Stats{Queries: 2255, Misses: 1706}},
		{"DCT", 30, pee.Stats{Queries: 2351, Misses: 1989}},
		{"BitonicRec", 64, pee.Stats{Queries: 1900, Misses: 1540}},
	} {
		g := appGraph(t, tc.app, tc.n)
		for _, workers := range []int{1, 2, 8} {
			eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
			if _, err := RunCtx(context.Background(), g, eng, workers); err != nil {
				t.Fatalf("%s-%d at %d workers: %v", tc.app, tc.n, workers, err)
			}
			if got := eng.Stats(); got != tc.want {
				t.Errorf("%s-%d at %d workers: the engine reads %v, want %v", tc.app, tc.n, workers, got, tc.want)
			}
		}
	}
}

// TestScanClaimsOffCaller keeps the parallel path alive: phase 4's first
// scan on DCT-30 walks past the gate without a merge, so at two workers the
// helper evaluates at least the group it was started on.
func TestScanClaimsOffCaller(t *testing.T) {
	g := appGraph(t, "DCT", 30)
	eng := pee.NewEngine(g, pee.ProfileGraph(g, gpu.M2090()))
	for _, workers := range []int{1, 2} {
		off, groups, err := phase4OffCaller(context.Background(), g, eng, workers)
		if err != nil {
			t.Fatal(err)
		}
		if groups <= scanGate || (off > 0) != (workers > 1) {
			t.Errorf("%d workers: %d of the scan's %d groups were evaluated off the caller", workers, off, groups)
		}
	}
}

// TestRunCtxCancelled verifies a cancelled context aborts the run.
func TestRunCtxCancelled(t *testing.T) {
	g := appGraph(t, "DES", 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, g, engineFor(t, g), 1); err == nil {
		t.Error("cancelled run succeeded")
	}
}

// TestSortByTWMatchesSortSlice holds phase 3's restart order to the
// sort.Slice order it had: on tie-heavy TW lists of up to 300 partitions,
// slices.SortFunc must leave the very same permutation, or a scan would
// try its candidates in another order.
func TestSortByTWMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7157))
	for c := 0; c < 20_000; c++ {
		n := 1 + rng.Intn(300)
		p := &partitioner{tws: make([]float64, n)}
		distinct := 1 + rng.Intn(n)
		for i := range p.tws {
			p.tws[i] = float64(rng.Intn(distinct))
		}
		got := rng.Perm(n)
		want := slices.Clone(got)
		sort.Slice(want, func(a, b int) bool { return p.tws[want[a]] < p.tws[want[b]] })
		p.sortByTW(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%d partitions, %d distinct TW: SortFunc %v, sort.Slice %v", n, distinct, got, want)
		}
	}
}
