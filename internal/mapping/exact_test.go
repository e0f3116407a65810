package mapping_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/mapping"
	"streammap/internal/obs"
	"streammap/internal/pdg"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// exactProblem draws one brute-forceable mapping problem (P ≤ 8, G ≤ 5,
// G^P ≤ 4^8) from a seed: a synth.BuildTopology tree — asymmetric fan-outs,
// GPUs on the host or deep under switches — left homogeneous, or with one
// edge throttled, one directed link changed alone, or a GPU lost; partition
// times drawn from a few values so ties are common; a random DAG of
// transfers, some empty; host I/O on some partitions; both transfer models.
func exactProblem(tb testing.TB, seed uint64) *mapping.Problem {
	tb.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	tree := drawTree(tb, r, seed, 1+r.Intn(5))

	n := 1 + r.Intn(8)
	for math.Pow(float64(tree.NumGPUs()), float64(n)) > 65536 {
		n--
	}
	work := make([]float64, n)
	hostIn := make([]int64, n)
	hostOut := make([]int64, n)
	for i := range work {
		work[i] = float64(20 * (1 + r.Intn(6)))
		if r.Intn(3) == 0 {
			hostIn[i] = int64(r.Intn(4)) * 150_000
		}
		if r.Intn(3) == 0 {
			hostOut[i] = int64(r.Intn(4)) * 150_000
		}
	}
	var edges []pdg.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 {
				edges = append(edges, pdg.Edge{From: i, To: j, Bytes: int64(r.Intn(5)) * 100_000})
			}
		}
	}
	g, err := pdg.Synthetic(work, edges, hostIn, hostOut)
	if err != nil {
		tb.Fatal(err)
	}
	return &mapping.Problem{
		PDG: g, Topo: tree,
		FragmentIters: 1 + r.Intn(3), LaunchUS: float64(r.Intn(2)) * 4,
		ViaHost: r.Intn(2) == 0,
	}
}

// drawTree draws a synth.BuildTopology tree of the given GPU count from r,
// then leaves it homogeneous or degrades it: one edge throttled, one
// directed link changed alone, or a GPU lost (while more than two remain).
func drawTree(tb testing.TB, r *rand.Rand, seed uint64, gpus int) *topology.Tree {
	tb.Helper()
	tree, err := synth.BuildTopology(synth.TopoParams{
		Seed: seed, GPUs: gpus, MaxFan: 1 + r.Intn(3), MaxDepth: 1 + r.Intn(3),
	})
	if err != nil {
		tb.Fatal(err)
	}
	switch r.Intn(5) {
	case 0: // a degraded edge: both directions slower, or slower to start
		th := topology.Throttle{Node: 1 + r.Intn(tree.NumNodes()-1), BandwidthGBs: tree.BandwidthGBs / 2, LatencyUS: -1}
		if r.Intn(2) == 0 {
			th = topology.Throttle{Node: th.Node, LatencyUS: tree.LatencyUS * 3}
		}
		if tree, _, err = tree.Degrade(topology.Degradation{Throttles: []topology.Throttle{th}}); err != nil {
			tb.Fatal(err)
		}
	case 1: // one directed link unlike its reverse
		spec := tree.Export()
		spec.LinkBandwidthGBs = make([]float64, tree.NumLinks())
		for l := range spec.LinkBandwidthGBs {
			spec.LinkBandwidthGBs[l] = tree.BandwidthGBs
		}
		spec.LinkBandwidthGBs[r.Intn(tree.NumLinks())] /= 4
		if tree, err = topology.Import(spec); err != nil {
			tb.Fatal(err)
		}
	case 2: // a GPU fell off the bus
		if tree.NumGPUs() > 2 {
			if tree, _, err = tree.Degrade(topology.Degradation{RemoveGPUs: []int{r.Intn(tree.NumGPUs())}}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return tree
}

// refereeExact holds the exact arm to the exhaustive enumerator on one
// problem, from no incumbent at all (the search must find the optimum by
// itself) and from the local-search incumbent (it may only return something
// strictly better): with the symmetry rule and without it the search closes
// on the brute-force optimum, and what it returns re-scores to that under
// Evaluate. It reports whether any placement was skipped as a mirror image.
func refereeExact(tb testing.TB, what string, p *mapping.Problem) bool {
	tb.Helper()
	ctx := context.Background()
	want, _ := mapping.BruteForce(p)
	local := mapping.LocalSearch(p)
	skipped := false
	for _, incumbent := range []float64{math.Inf(1), local.Objective} {
		var nodes [2]int64
		for si, symmetry := range []bool{true, false} {
			gpuOf, st := mapping.ExactSearch(ctx, p, incumbent, 1<<40, symmetry)
			if !st.Closed {
				tb.Fatalf("%s: incumbent %v symmetry %t: search did not close", what, incumbent, symmetry)
			}
			if st.Improved != (gpuOf != nil) {
				tb.Fatalf("%s: improved=%t but placement %v", what, st.Improved, gpuOf)
			}
			got := incumbent
			if gpuOf != nil {
				got = mapping.Evaluate(p, gpuOf, "exact").Objective
				if !(got < incumbent-1e-9+1e-12) {
					tb.Errorf("%s: symmetry %t: returned %v, not strictly below the incumbent %v", what, symmetry, got, incumbent)
				}
			}
			if math.Abs(got-want) > 1e-9 {
				tb.Errorf("%s: incumbent %v symmetry %t: objective %v, brute force %v (placement %v)",
					what, incumbent, symmetry, got, want, gpuOf)
			}
			if !symmetry && st.SymmetrySkips != 0 {
				tb.Errorf("%s: %d symmetry skips with the rule off", what, st.SymmetrySkips)
			}
			nodes[si] = st.Nodes
			skipped = skipped || st.SymmetrySkips > 0
		}
		if nodes[0] > nodes[1] {
			tb.Errorf("%s: the symmetry rule grew the search: %d nodes with, %d without", what, nodes[0], nodes[1])
		}
	}
	return skipped
}

// TestExactMatchesBruteForce is the exact arm's referee over 600 seeded
// problems; see exactProblem for what they cover and refereeExact for what
// is held.
func TestExactMatchesBruteForce(t *testing.T) {
	var hetero, viaHost, skipped int
	for seed := uint64(0); seed < 600; seed++ {
		p := exactProblem(t, seed)
		if p.Topo.Heterogeneous() {
			hetero++
		}
		if p.ViaHost {
			viaHost++
		}
		if refereeExact(t, fmt.Sprintf("seed %d", seed), p) {
			skipped++
		}
	}
	// The corpus must exercise what it claims to.
	if hetero < 100 || viaHost < 200 || skipped < 200 {
		t.Errorf("600 problems: %d heterogeneous, %d via host, %d with symmetry skips", hetero, viaHost, skipped)
	}
}

// FuzzExactSearch runs the same referee on problems drawn from arbitrary
// seeds.
func FuzzExactSearch(f *testing.F) {
	for _, seed := range []uint64{0, 1, 0xC1, 0x5EED, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		refereeExact(t, fmt.Sprintf("seed %#x", seed), exactProblem(t, seed))
	})
}

// TestSubtreeSignatureSeparates: sibling subtrees are one symmetry class
// exactly when shape and every link parameter, in both directions, agree.
func TestSubtreeSignatureSeparates(t *testing.T) {
	// Nodes of FourGPUTree: 0 host, 1 SW1, 2 SW2, 3 SW3, 4..5 SW2's GPUs,
	// 6..7 SW3's. Link ids of node i: 2(i-1) up, 2(i-1)+1 down.
	withLink := func(bw bool, link int, v float64) *topology.Tree {
		base := topology.FourGPUTree()
		spec := base.Export()
		vals := make([]float64, base.NumLinks())
		for l := range vals {
			vals[l] = base.LinkLatencyUS(l)
			if bw {
				vals[l] = base.LinkBandwidthGBs(l)
			}
		}
		vals[link] = v
		if bw {
			spec.LinkBandwidthGBs = vals
		} else {
			spec.LinkLatencyUS = vals
		}
		tr, err := topology.Import(spec)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	lopsided := func() *topology.Tree {
		b := topology.NewBuilder()
		sw1 := b.AddSwitch(b.Root(), "SW1")
		sw2 := b.AddSwitch(sw1, "SW2")
		sw3 := b.AddSwitch(sw1, "SW3")
		b.AddGPU(sw2)
		b.AddGPU(sw2)
		b.AddGPU(sw3)
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, tc := range []struct {
		name           string
		tree           *topology.Tree
		switches, gpus bool // SW2 ~ SW3; SW2's two GPUs alike
	}{
		{"homogeneous", topology.FourGPUTree(), true, true},
		{"SW3 uplink bandwidth", withLink(true, 4, 4), false, true},
		{"SW3 downlink latency", withLink(false, 5, 25), false, true},
		{"gpu2 uplink latency", withLink(false, 8, 11), false, false},
		{"gpu2 downlink bandwidth", withLink(true, 9, 7.5), false, false},
		{"gpu4 downlink bandwidth", withLink(true, 13, 7.5), false, true},
		{"SW3 one GPU short", lopsided(), false, true},
	} {
		sig := mapping.SubtreeSignatures(tc.tree)
		if got := sig[2] == sig[3]; got != tc.switches {
			t.Errorf("%s: SW2 ~ SW3 is %t, want %t\n%q\n%q", tc.name, got, tc.switches, sig[2], sig[3])
		}
		if got := sig[4] == sig[5]; got != tc.gpus {
			t.Errorf("%s: gpu1 ~ gpu2 is %t, want %t\n%q\n%q", tc.name, got, tc.gpus, sig[4], sig[5])
		}
	}
}

// truncatedProblem is a 20-partition, 4-GPU instance whose optimum balances
// to within a hair of ΣT/G, so the exact arm neither proves the bound at the
// root nor closes inside 10^5 nodes.
func truncatedProblem(t *testing.T) *mapping.Problem {
	t.Helper()
	work := make([]float64, 20)
	var edges []pdg.Edge
	for i := range work {
		work[i] = float64((i*37)%211+40) + float64(i)/7
		if i > 0 {
			edges = append(edges, pdg.Edge{From: i - 1, To: i, Bytes: int64(50000 * (i%5 + 1))})
		}
	}
	g, err := pdg.Synthetic(work, edges, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &mapping.Problem{PDG: g, Topo: topology.PairedTree(4), FragmentIters: 4}
}

// TestExactBudgetDeterministic: a search cut short by its node budget is a
// function of the problem and the budget — same node count, same counts of
// every kind of cut, same placement — and SolveCtx under the matching
// TimeBudget commits the same assignment every time. Counts only; CI also
// runs it under -cpu 1,2.
func TestExactBudgetDeterministic(t *testing.T) {
	p := truncatedProblem(t)
	ctx := context.Background()
	local := mapping.LocalSearch(p)
	const budget = 100_000
	gpuOf, st := mapping.ExactSearch(ctx, p, local.Objective, budget, true)
	if st.Closed || st.Nodes != budget {
		t.Fatalf("search closed=%t after %d nodes; the instance no longer exhausts a %d-node budget", st.Closed, st.Nodes, budget)
	}
	for run := 0; run < 3; run++ {
		againOf, again := mapping.ExactSearch(ctx, p, local.Objective, budget, true)
		if again != st || fmt.Sprint(againOf) != fmt.Sprint(gpuOf) {
			t.Fatalf("run %d: %+v %v, first run %+v %v", run, again, againOf, st, gpuOf)
		}
	}
	opts := mapping.Options{TimeBudget: budget * 100} // 100 ns a node
	first, err := mapping.SolveCtx(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Method != "ilp" || first.Objective > local.Objective {
		t.Errorf("truncated solve: method %q objective %v (local %v)", first.Method, first.Objective, local.Objective)
	}
	opts.Workers = 4
	second, err := mapping.SolveCtx(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(second.GPUOf) != fmt.Sprint(first.GPUOf) || second.Objective != first.Objective {
		t.Errorf("truncated solve is not reproducible: %v %v, then %v %v", first.GPUOf, first.Objective, second.GPUOf, second.Objective)
	}
}

// exactSpan compiles an app under a traced context and returns the compile
// with the counts its map.exact span was noted with.
func exactSpan(t *testing.T, app string, n, gpus int) (*driver.Compiled, mapping.ExactStats) {
	t.Helper()
	a, ok := apps.ByName(app)
	if !ok {
		t.Fatalf("no app %q", app)
	}
	g, err := apps.BuildGraph(a, n)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerConfig{})
	ctx, trace := tracer.StartRequest(context.Background(), "", app)
	c, err := driver.Compile(ctx, g, driver.Options{Topo: topology.PairedTree(gpus)})
	if err != nil {
		t.Fatal(err)
	}
	trace.Finish(200)
	var stageMap string
	spans := tracer.Snapshot().Recent[0].Spans
	for _, sp := range spans {
		if sp.Name == "stage.map" {
			stageMap = sp.ID
		}
	}
	for _, sp := range spans {
		if sp.Name != "map.exact" {
			continue
		}
		if sp.Parent != stageMap {
			t.Errorf("%s:%d: map.exact is not a child of stage.map", app, n)
		}
		var st mapping.ExactStats
		var budget int64
		if _, err := fmt.Sscanf(sp.Note, "nodes=%d time_cut=%d link_cut=%d symmetry_skips=%d closed=%t improved=%t budget_nodes=%d",
			&st.Nodes, &st.TimeCut, &st.LinkCut, &st.SymmetrySkips, &st.Closed, &st.Improved, &budget); err != nil {
			t.Fatalf("%s:%d: map.exact note %q: %v", app, n, sp.Note, err)
		}
		if budget != 100_000_000 {
			t.Errorf("%s:%d: budget_nodes=%d under the default 10 s, want 10^8", app, n, budget)
		}
		return c, st
	}
	t.Fatalf("%s:%d x%d: no map.exact span among %d", app, n, gpus, len(spans))
	return nil, mapping.ExactStats{}
}

// TestExactClosesPaperSizes: on the 4-GPU tree the benchmark's four
// exact-sized apps, and the two paper sizes the LP search never closed inside
// the default budget, compile with local search's optimum proven in at most
// 10^4 nodes; on the 8-GPU tree MatMul3:7's exact arm ends strictly below
// what local search found.
func TestExactClosesPaperSizes(t *testing.T) {
	for _, pc := range []struct {
		app string
		n   int
	}{{"FFT", 512}, {"MatMul2", 8}, {"MatMul3", 6}, {"Bitonic", 64}, {"FFT", 1024}, {"MatMul3", 7}} {
		c, st := exactSpan(t, pc.app, pc.n, 4)
		if !st.Closed || st.Improved || st.Nodes > 10_000 {
			t.Errorf("%s:%d: closed=%t improved=%t after %d nodes, want the seed proven within 10^4", pc.app, pc.n, st.Closed, st.Improved, st.Nodes)
		}
		if c.Assign.Method != "ilp" {
			t.Errorf("%s:%d: method %q, want the exact arm's", pc.app, pc.n, c.Assign.Method)
		}
	}
	c, st := exactSpan(t, "MatMul3", 7, 8)
	local := mapping.LocalSearch(c.Problem)
	if c.Assign.Method != "ilp" || !st.Closed || !st.Improved || !(c.Assign.Objective < local.Objective-1e-9) {
		t.Errorf("MatMul3:7 x8: method %q closed=%t improved=%t objective %v, local search %v", c.Assign.Method, st.Closed, st.Improved, c.Assign.Objective, local.Objective)
	}
}

// pollCtx is a live context that counts its Err polls and, when cancelAt is
// set, reports cancellation from that poll on: a cancellation that lands at
// the same point of a solve on every run. Not for concurrent use.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestSolveCtxCancelledInExactArm: a context cancelled while the exact arm
// is searching stops it at its next poll, and SolveCtx reports the
// cancellation instead of the arm's best so far.
func TestSolveCtxCancelledInExactArm(t *testing.T) {
	p := truncatedProblem(t)
	// 300k nodes: the arm polls four times (every 2^16 nodes) before its
	// budget ends, and SolveCtx once more after it.
	opts := mapping.Options{TimeBudget: 300_000 * 100}
	live := &pollCtx{Context: context.Background()}
	if _, err := mapping.SolveCtx(live, p, opts); err != nil {
		t.Fatal(err)
	}
	cut := &pollCtx{Context: context.Background(), cancelAt: live.polls - 3} // the arm's second poll
	got, err := mapping.SolveCtx(cut, p, opts)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled solve returned %v, %v; want nil, context.Canceled", got, err)
	}
	if cut.polls >= live.polls {
		t.Errorf("cancelled solve polled %d times, the live one %d: the exact arm did not stop early", cut.polls, live.polls)
	}
}
