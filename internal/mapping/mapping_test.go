package mapping

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"streammap/internal/pdg"
	"streammap/internal/topology"
)

// synth builds a Problem over the 4-GPU paper topology.
func synth(t *testing.T, work []float64, edges []pdg.Edge, hostIn, hostOut []int64, gpus int) *Problem {
	t.Helper()
	g, err := pdg.Synthetic(len(work), edges, hostIn, hostOut)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		PDG:           g,
		Topo:          topology.PairedTree(gpus),
		FragmentIters: 1,
		TimesUS:       partTimes(work, 1, 0),
	}
}

// partTimes is T_i of partitions with the given per-iteration work: B
// iterations of it plus one launch.
func partTimes(work []float64, b int, launch float64) []float64 {
	times := make([]float64, len(work))
	for i, w := range work {
		times[i] = w*float64(b) + launch
	}
	return times
}

// solve is SolveCtx under a live context.
func solve(p *Problem, opts Options) (*Assignment, error) {
	return SolveCtx(context.Background(), p, opts)
}

// localSearch is the multi-seed local search at one worker.
func localSearch(p *Problem) *Assignment {
	a, _ := localSearchCtx(context.Background(), p, 1, Greedy(p))
	return a
}

// bruteForce enumerates every assignment and returns the best exact
// objective.
func bruteForce(p *Problem) (float64, []int) {
	n := p.PDG.NumParts()
	g := p.Topo.NumGPUs()
	gpuOf := make([]int, n)
	best := math.Inf(1)
	var bestA []int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if obj := Evaluate(p, gpuOf, "bf").Objective; obj < best {
				best = obj
				bestA = append([]int(nil), gpuOf...)
			}
			return
		}
		for k := 0; k < g; k++ {
			gpuOf[i] = k
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestA
}

// refEval is an independent, allocating evaluation of one assignment: the
// referee the mappers' evaluator (and so Evaluate) is held to. It walks the
// topology's routes afresh instead of the evaluator's cached table and keeps
// every per-GPU time, per-link load and per-link time.
type refEval struct {
	objective float64
	gpuTimes  []float64 // per GPU
	linkTimes []float64 // per directed link
	linkLoads []int64   // bytes per fragment per directed link
}

func refEvaluate(p *Problem, gpuOf []int) refEval {
	t := p.Topo
	r := refEval{
		gpuTimes:  make([]float64, t.NumGPUs()),
		linkTimes: make([]float64, t.NumLinks()),
		linkLoads: make([]int64, t.NumLinks()),
	}
	B := int64(p.FragmentIters)
	for i := 0; i < p.PDG.NumParts(); i++ {
		r.gpuTimes[gpuOf[i]] += p.PartTimeUS(i)
	}
	addRoute := func(route []int, bytes int64) {
		for _, l := range route {
			r.linkLoads[l] += bytes
		}
	}
	for _, e := range p.PDG.Edges {
		gs, gd := gpuOf[e.From], gpuOf[e.To]
		if gs == gd {
			continue
		}
		if p.ViaHost {
			addRoute(t.RouteViaHost(gs, gd), e.Bytes*B)
		} else {
			addRoute(t.Route(gs, gd), e.Bytes*B)
		}
	}
	for i := 0; i < p.PDG.NumParts(); i++ {
		if hb := p.PDG.HostInBytes[i] * B; hb > 0 {
			addRoute(t.Route(topology.Host, gpuOf[i]), hb)
		}
		if hb := p.PDG.HostOutBytes[i] * B; hb > 0 {
			addRoute(t.Route(gpuOf[i], topology.Host), hb)
		}
	}
	r.objective = gpuMax(r.gpuTimes)
	for l, load := range r.linkLoads {
		if load > 0 {
			r.linkTimes[l] = linkTimeUS(t, l, load)
			r.objective = fmax(r.objective, r.linkTimes[l])
		}
	}
	return r
}

func TestEvaluateHandComputed(t *testing.T) {
	// One partition, one GPU: objective = max(work, host-in link, host-out link).
	p := synth(t, []float64{100}, nil, []int64{80000}, []int64{80000}, 1)
	a := Evaluate(p, []int{0}, "test")
	r := refEvaluate(p, []int{0})
	// Host link time: 10us latency + 80000B / (8GB/s = 8000 B/us) = 20us.
	if math.Abs(a.Objective-100) > 1e-9 || a.Objective != r.objective {
		t.Errorf("objective = %v (referee %v), want 100 (compute bound)", a.Objective, r.objective)
	}
	var loaded int
	for _, l := range r.linkLoads {
		if l > 0 {
			loaded++
		}
	}
	// gpu0 is 3 hops from host in PairedTree(1): 3 uplinks + 3 downlinks loaded.
	if loaded != 6 {
		t.Errorf("loaded links = %d, want 6", loaded)
	}
	for i, lt := range r.linkTimes {
		if r.linkLoads[i] > 0 && math.Abs(lt-20) > 1e-9 {
			t.Errorf("link %d time = %v, want 20", i, lt)
		}
	}
}

func TestEvaluateCommBound(t *testing.T) {
	// Two partitions chained with a huge edge: on different GPUs the link
	// dominates; on the same GPU compute adds up.
	work := []float64{50, 50}
	edges := []pdg.Edge{{From: 0, To: 1, Bytes: 4_000_000}} // 500us at 8GB/s
	p := synth(t, work, edges, nil, nil, 2)
	same := Evaluate(p, []int{0, 0}, "t")
	diff := Evaluate(p, []int{0, 1}, "t")
	if math.Abs(same.Objective-100) > 1e-9 {
		t.Errorf("same-GPU objective = %v, want 100", same.Objective)
	}
	if diff.Objective < 500 {
		t.Errorf("split objective = %v, want >= 500 (comm bound)", diff.Objective)
	}
}

func TestSingleGPUTrivial(t *testing.T) {
	p := synth(t, []float64{10, 20, 30}, nil, nil, nil, 1)
	a, err := solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range a.GPUOf {
		if g != 0 {
			t.Errorf("partition on GPU %d in a 1-GPU machine", g)
		}
	}
	if math.Abs(a.Objective-60) > 1e-9 {
		t.Errorf("objective = %v, want 60", a.Objective)
	}
}

func TestSolveBalancesIndependentWork(t *testing.T) {
	// Four equal independent heavy partitions on 4 GPUs: perfect split.
	p := synth(t, []float64{1000, 1000, 1000, 1000}, nil, nil, nil, 4)
	a, err := solve(p, Options{ForceILP: true, TimeBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, g := range a.GPUOf {
		used[g] = true
	}
	if len(used) != 4 {
		t.Errorf("assignment %v uses %d GPUs, want 4", a.GPUOf, len(used))
	}
	if math.Abs(a.Objective-1000) > 1e-6 {
		t.Errorf("objective = %v, want 1000", a.Objective)
	}
}

func TestSolveCommunicationAware(t *testing.T) {
	// Two tightly-coupled pairs: (0,1) and (2,3) exchange lots of data;
	// cross traffic is free. The optimal mapping co-locates each pair.
	work := []float64{400, 400, 400, 400}
	edges := []pdg.Edge{
		{From: 0, To: 1, Bytes: 8_000_000}, // 1000us if split
		{From: 2, To: 3, Bytes: 8_000_000},
	}
	p := synth(t, work, edges, nil, nil, 2)
	a, err := solve(p, Options{ForceILP: true, TimeBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if a.GPUOf[0] != a.GPUOf[1] || a.GPUOf[2] != a.GPUOf[3] || a.GPUOf[0] == a.GPUOf[2] {
		t.Errorf("assignment %v should co-locate pairs on distinct GPUs", a.GPUOf)
	}
	if math.Abs(a.Objective-800) > 1e-6 {
		t.Errorf("objective = %v, want 800", a.Objective)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	// Mixed instance with work and communication, 2 GPUs, 5 partitions.
	work := []float64{300, 120, 450, 80, 200}
	edges := []pdg.Edge{
		{From: 0, To: 1, Bytes: 400_000},
		{From: 1, To: 2, Bytes: 1_200_000},
		{From: 2, To: 3, Bytes: 300_000},
		{From: 3, To: 4, Bytes: 2_000_000},
	}
	p := synth(t, work, edges, []int64{100_000, 0, 0, 0, 0}, []int64{0, 0, 0, 0, 150_000}, 2)
	want, _ := bruteForce(p)
	a, err := solve(p, Options{ForceILP: true, TimeBudget: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective > want*1.02+1e-6 {
		t.Errorf("solve objective %v exceeds brute-force optimum %v", a.Objective, want)
	}
}

func TestLocalSearchNotWorseThanGreedy(t *testing.T) {
	work := []float64{10, 500, 30, 250, 90, 120, 60}
	edges := []pdg.Edge{
		{From: 0, To: 1, Bytes: 900_000},
		{From: 1, To: 2, Bytes: 900_000},
		{From: 2, To: 3, Bytes: 50_000},
		{From: 3, To: 4, Bytes: 700_000},
		{From: 4, To: 5, Bytes: 100_000},
		{From: 5, To: 6, Bytes: 800_000},
	}
	p := synth(t, work, edges, nil, nil, 4)
	g := Greedy(p)
	l := localSearch(p)
	if l.Objective > g.Objective+1e-9 {
		t.Errorf("local search %v worse than greedy %v", l.Objective, g.Objective)
	}
}

func TestPrevWorkStagesThroughHost(t *testing.T) {
	work := []float64{100, 100}
	edges := []pdg.Edge{{From: 0, To: 1, Bytes: 1_000_000}}
	p := synth(t, work, edges, nil, nil, 2)
	a := PrevWork(p)
	if a.GPUOf[0] == a.GPUOf[1] {
		t.Skip("prevwork chose co-location; nothing to check")
	}
	// Via-host: the downlink into the destination GPU's subtree from host
	// must carry load. With peer-to-peer between siblings it would not pass
	// through the root; via host it must traverse the SW1 uplink+downlink.
	tr := p.Topo
	var rootUp int
	found := false
	for _, l := range tr.Links() {
		if tr.LinkName(l.ID) == "SW1->host" && l.Dir == topology.Up {
			rootUp = l.ID
			found = true
		}
	}
	if !found {
		t.Fatal("root uplink not found")
	}
	q := *p
	q.ViaHost = true
	if refEvaluate(&q, a.GPUOf).linkLoads[rootUp] == 0 {
		t.Errorf("via-host transfer did not load the root uplink")
	}
}

func TestPeerToPeerAvoidsHostLinks(t *testing.T) {
	work := []float64{100, 100}
	edges := []pdg.Edge{{From: 0, To: 1, Bytes: 1_000_000}}
	p := synth(t, work, edges, nil, nil, 2)
	loads := refEvaluate(p, []int{0, 1}).linkLoads
	tr := p.Topo
	for _, l := range tr.Links() {
		name := tr.LinkName(l.ID)
		if (name == "SW1->host" || name == "host->SW1") && loads[l.ID] > 0 {
			t.Errorf("p2p sibling transfer loaded host link %s", name)
		}
	}
}

// Property: Solve never returns a worse objective than plain greedy, and
// always returns a complete assignment.
func TestSolveQuality(t *testing.T) {
	f := func(raw [6]uint16, conn [5]uint16) bool {
		work := make([]float64, 6)
		for i, r := range raw {
			work[i] = float64(r%2000) + 1
		}
		var edges []pdg.Edge
		for i, c := range conn {
			edges = append(edges, pdg.Edge{From: i, To: i + 1, Bytes: int64(c) * 1000})
		}
		g, err := pdg.Synthetic(len(work), edges, nil, nil)
		if err != nil {
			return false
		}
		p := &Problem{PDG: g, Topo: topology.PairedTree(3), FragmentIters: 2, TimesUS: partTimes(work, 2, 5)}
		a, err := solve(p, Options{TimeBudget: 2 * time.Second})
		if err != nil {
			return false
		}
		if len(a.GPUOf) != 6 {
			return false
		}
		for _, k := range a.GPUOf {
			if k < 0 || k >= 3 {
				return false
			}
		}
		return a.Objective <= Greedy(p).Objective+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestEvaluatorMatchesEvaluate pins the mappers' allocation-free scorer,
// rebuilt from scratch, and Evaluate, its wrapper, against the independent
// referee refEvaluate: identical objectives (bit for bit) on every
// assignment of a brute-forceable instance, with and without via-host
// staging, the early return under a cut, plus the partial (-1) form against
// placements Greedy explores.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	p := synth(t,
		[]float64{9, 7, 5, 3, 2},
		[]pdg.Edge{{From: 0, To: 1, Bytes: 4096}, {From: 1, To: 2, Bytes: 128}, {From: 2, To: 3, Bytes: 65536}, {From: 3, To: 4, Bytes: 512}},
		[]int64{2048, 0, 0, 0, 0}, []int64{0, 0, 0, 0, 4096}, 4)
	for _, viaHost := range []bool{false, true} {
		q := *p
		q.ViaHost = viaHost
		ev := newEvaluator(&q)
		n := q.PDG.NumParts()
		g := q.Topo.NumGPUs()
		gpuOf := make([]int, n)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				want := refEvaluate(&q, gpuOf).objective
				if got := ev.reset(gpuOf, math.Inf(1)); got != want {
					t.Fatalf("viaHost=%v %v: evaluator %v != referee %v", viaHost, gpuOf, got, want)
				}
				if got := Evaluate(&q, gpuOf, "ref").Objective; got != want {
					t.Fatalf("viaHost=%v %v: Evaluate %v != referee %v", viaHost, gpuOf, got, want)
				}
				// Under a cut the value may be the GPU-time bound instead,
				// but "below the cut" must answer as the exact objective does.
				for _, cut := range []float64{want, want + 1e-9, want / 2, 0} {
					if got := ev.reset(gpuOf, cut); (got < cut) != (want < cut) || got > want {
						t.Fatalf("viaHost=%v %v cut %v: evaluator %v, exact %v", viaHost, gpuOf, cut, got, want)
					}
				}
				return
			}
			for k := 0; k < g; k++ {
				gpuOf[i] = k
				rec(i + 1)
			}
		}
		rec(0)
	}
	// Partial assignments: every proper prefix placed, the rest -1.
	ev := newEvaluator(p)
	n := p.PDG.NumParts()
	for placed := 0; placed < n; placed++ {
		gpuOf := make([]int, n)
		for i := range gpuOf {
			if i <= placed {
				gpuOf[i] = i % p.Topo.NumGPUs()
			} else {
				gpuOf[i] = -1
			}
		}
		obj := ev.reset(gpuOf, math.Inf(1))
		if math.IsNaN(obj) || obj < 0 {
			t.Fatalf("partial objective invalid: %v", obj)
		}
		// A partial objective never exceeds the same placement completed on
		// GPU 0 arbitrarily (monotonicity sanity, not exactness).
		full := append([]int(nil), gpuOf...)
		for i := range full {
			if full[i] < 0 {
				full[i] = 0
			}
		}
		if ev.reset(full, math.Inf(1)) < obj-1e-12 {
			t.Fatalf("completing a placement lowered the objective: %v -> %v", obj, ev.reset(full, math.Inf(1)))
		}
	}
}

// TestLinkCapBoundary: a link's cap is the first load whose time reaches the
// threshold — time(cap−1) < thr ≤ time(cap) — over seeded per-link
// bandwidths and latencies (every link overridden) and thresholds drawn at,
// just below and just above a load's own time, from one byte to 10^15; a
// threshold at or below the latency caps at 1, one no load reaches at
// math.MaxInt64.
func TestLinkCapBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(0xCA95))
	base := topology.PairedTree(4)
	spec, n := base.Export(), base.NumLinks()
	spec.LinkBandwidthGBs = make([]float64, n)
	spec.LinkLatencyUS = make([]float64, n)
	for trial := 0; trial < 200; trial++ {
		for l := 0; l < n; l++ {
			spec.LinkBandwidthGBs[l] = 0.05 + r.Float64()*200
			spec.LinkLatencyUS[l] = r.Float64() * 50
		}
		tree, err := topology.Import(spec)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < tree.NumLinks(); l++ {
			timeOf := func(load int64) float64 { return linkTimeUS(tree, l, load) }
			lat := tree.LinkLatencyUS(l)
			for _, thr := range []float64{lat, lat - 1, math.Nextafter(lat, 0), 0} {
				if c := linkCap(tree, l, thr); c != 1 {
					t.Fatalf("link %d latency %v: threshold %v capped at %d, want 1", l, lat, thr, c)
				}
			}
			for _, thr := range []float64{math.Inf(1), lat + 1e300, math.Nextafter(timeOf(math.MaxInt64), math.Inf(1))} {
				if c := linkCap(tree, l, thr); c != math.MaxInt64 || !(timeOf(c-1) < thr) {
					t.Fatalf("link %d: threshold %v beyond any load capped at %d", l, thr, c)
				}
			}
			for range 20 {
				at := timeOf(1 + r.Int63n(int64(math.Pow(10, float64(r.Intn(16))))))
				for _, thr := range []float64{at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)), at * (1 + 1e-12)} {
					c := linkCap(tree, l, thr)
					if c < 1 || c == math.MaxInt64 || !(thr <= timeOf(c)) || c > 1 && !(timeOf(c-1) < thr) {
						t.Fatalf("link %d (bandwidth %v GB/s, latency %v µs): threshold %v capped at %d: time(cap-1) %v, time(cap) %v",
							l, tree.LinkBandwidthGBs(l), lat, thr, c, timeOf(c-1), timeOf(c))
					}
				}
			}
		}
	}
}

// TestDeltaEvaluatorMatchesEvaluate drives the evaluator's incremental half
// through a deterministic pseudo-random move sequence and checks it against the
// from-scratch referee refEvaluate after every step. Link loads are integral, so only
// the float GPU sums can drift; the tolerance is far below the local-search
// acceptance threshold.
func TestDeltaEvaluatorMatchesEvaluate(t *testing.T) {
	const n = 37
	work := make([]float64, n)
	var hostIn, hostOut []int64
	var edges []pdg.Edge
	state := uint64(0xDECAF)
	rnd := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := range work {
		work[i] = float64(1 + rnd(1000))
	}
	hostIn = make([]int64, n)
	hostOut = make([]int64, n)
	hostIn[0] = 100_000
	hostOut[n-1] = 50_000
	for i := 0; i < n-1; i++ {
		edges = append(edges, pdg.Edge{From: i, To: i + 1, Bytes: int64(1 + rnd(100_000))})
		if j := rnd(n); j > i+1 {
			edges = append(edges, pdg.Edge{From: i, To: j, Bytes: int64(1 + rnd(10_000))})
		}
	}
	p := synth(t, work, edges, hostIn, hostOut, 4)
	p.FragmentIters, p.TimesUS = 8, partTimes(work, 8, 0)
	for _, viaHost := range []bool{false, true} {
		q := *p
		q.ViaHost = viaHost
		de := newEvaluator(&q)
		gpuOf := make([]int, n)
		for i := range gpuOf {
			gpuOf[i] = rnd(4)
		}
		de.reset(gpuOf, math.Inf(1))
		for step := 0; step < 500; step++ {
			i, k := rnd(n), rnd(4)
			de.moveTime(i, de.gpuOf[i], k)
			de.reroute(de.loads, i, de.gpuOf[i], k)
			de.gpuOf[i] = k
			want := refEvaluate(&q, de.gpuOf).objective
			got := linkMax(q.Topo, de.loads, gpuMax(de.gpuT))
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("viaHost=%v step %d: delta %v != referee %v", viaHost, step, got, want)
			}
		}
	}
}

// TestLocalSearchLargeInstance exercises local search end to end at a size
// where a sweep is ~10^5 candidates: the result must be a valid assignment
// no worse than greedy's.
func TestLocalSearchLargeInstance(t *testing.T) {
	const n = 576
	work := make([]float64, n)
	var edges []pdg.Edge
	state := uint64(0xFEED)
	rnd := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := range work {
		work[i] = float64(1 + rnd(500))
	}
	for i := 0; i < n-1; i++ {
		edges = append(edges, pdg.Edge{From: i, To: i + 1, Bytes: int64(1 + rnd(20_000))})
	}
	p := synth(t, work, edges, nil, nil, 4)
	greedy := Greedy(p)
	a := localSearch(p)
	if len(a.GPUOf) != n {
		t.Fatalf("assignment covers %d of %d parts", len(a.GPUOf), n)
	}
	for i, k := range a.GPUOf {
		if k < 0 || k >= 4 {
			t.Fatalf("part %d on invalid GPU %d", i, k)
		}
	}
	if a.Objective > greedy.Objective+1e-9 {
		t.Fatalf("local search (%v) worse than greedy (%v)", a.Objective, greedy.Objective)
	}
	want := Evaluate(p, a.GPUOf, "ref").Objective
	if math.Abs(a.Objective-want) > 1e-9 {
		t.Fatalf("returned objective %v != re-evaluated %v", a.Objective, want)
	}
}
