package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"streammap/internal/core"
	"streammap/internal/faultinject"
	"streammap/internal/fleet"
	"streammap/internal/server"
	"streammap/internal/synth"
)

// The churn and chaos tests run a fleet of fleetSize nodes on real
// loopback sockets — peers reach each other over HTTP exactly as separate
// processes would — over one ring and one shared store, and replay seeded
// known-key traffic against it.
const fleetSize = 3

// chaosSpec is the fault mix every chaos node injects, each under its own
// schedule seed: every fault class at rates high enough that a
// ~150-request run fires all of them, low enough that the fleet stays
// mostly functional — degraded serving is the regime under test, not a
// full outage.
var chaosSpec = faultinject.Spec{
	PeerRefuse:   0.20,
	PeerLatency:  5 * time.Millisecond,
	PeerLatencyP: 0.20,
	CorruptBody:  0.12,
	TruncateBody: 0.12,
	TornWrite:    0.18,
	CorruptFile:  0.12,
	WriteENOSPC:  0.08,
	ClockSkewMax: 200 * time.Millisecond,
}

// fleetCorpus is a fleet test's working set: hot scenarios of synth's
// corpus at seed as compile request bodies, and per key the node whose
// ring segment owns it. victim is the node owning the most keys (at least
// one, by pigeonhole): losing it moves the largest share of the keyspace,
// and its keys are the ones only the shared store can answer for it after
// a cold restart.
func fleetCorpus(t *testing.T, nodes []*fleetNode, seed uint64, hot, maxFilters int) (bodies map[int][]byte, owner []int, victim int) {
	t.Helper()
	corpus, err := synth.Corpus(synth.CorpusParams{Seed: seed, Scenarios: hot, MaxFilters: maxFilters, MaxGPUs: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ring := fleetRing(t, nodes)
	bodies, owner = map[int][]byte{}, make([]int, hot)
	owned := make([]int, len(nodes))
	for k, sc := range corpus {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		if bodies[k], err = json.Marshal(server.NewRequest(g, sc.Opts)); err != nil {
			t.Fatal(err)
		}
		url := ring.Owner(keyHashOf(t, g, sc.Opts))
		owner[k] = slices.IndexFunc(nodes, func(n *fleetNode) bool { return n.url == url })
		owned[owner[k]]++
	}
	for i := range owned {
		if owned[i] > owned[victim] {
			victim = i
		}
	}
	return bodies, owner, victim
}

// toNonOwner is the warm-up draw: request k is hot key k, offered to a
// node that does not own it, so the fleet path (proxy or fetch) fills the
// owner and the shared store in one pass.
func toNonOwner(rng *synth.Rand, owner []int) func(int) (node, key int) {
	return func(k int) (int, int) {
		n := rng.Intn(fleetSize)
		if n == owner[k] {
			n = (n + 1) % fleetSize
		}
		return n, k
	}
}

// toAnyBut is the steady-traffic draw: a random node other than down (-1
// for none), then a random one of hot keys.
func toAnyBut(rng *synth.Rand, down, hot int) func(int) (node, key int) {
	return func(int) (int, int) {
		if down < 0 {
			return rng.Intn(fleetSize), rng.Intn(hot)
		}
		n := rng.Intn(fleetSize - 1)
		if n >= down {
			n++
		}
		return n, rng.Intn(hot)
	}
}

// fleetPhase replays n requests, request i posting the body of the key
// draw(i) names to the node it names, and calls onOK (when set) on every
// 200. The sequence is drawn up front on the calling goroutine: synth's
// generator is not safe for concurrent draws.
func fleetPhase(nodes []*fleetNode, bodies map[int][]byte, workers, n int, draw func(int) (node, key int), onOK func(node, key int, body []byte)) *loadTally {
	on, keys := make([]int, n), make([]int, n)
	for i := range keys {
		on[i], keys[i] = draw(i)
	}
	var check func(int, []byte)
	if onOK != nil {
		check = func(pos int, body []byte) { onOK(on[pos], keys[pos], body) }
	}
	tally, _ := replayTo(func(pos int) string { return nodes[on[pos]].url }, keys, bodies, workers, check)
	return tally
}

// rebind brings a node that stopServer killed back on its address with a
// fresh server built from cfg: the one rebind the fleet tests make.
func rebind(t *testing.T, n *fleetNode, cfg server.Config) {
	t.Helper()
	ln, err := net.Listen("tcp", n.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: srv.Handler()}}
	ts.Start()
	t.Cleanup(func() { stopServer(t, srv, ts) })
	n.srv, n.ts = srv, ts
}

// tear truncates every stride-th committed artifact entry in dir, in name
// order, to half its bytes — what a crash mid-write would leave if the
// write path were not atomic, and what quarantine must catch — and
// returns how many it tore.
func tear(t *testing.T, dir string, stride int) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.artifact.json"))
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for i := 0; i < len(paths); i += stride {
		fi, err := os.Stat(paths[i])
		if err == nil {
			err = os.Truncate(paths[i], fi.Size()/2)
		}
		if err != nil {
			t.Fatal(err)
		}
		torn++
	}
	return torn
}

// TestMultiNodeChurn is the fleet-serving acceptance run: three nodes, one
// ring, one shared store. After warm-up no known-key request may compile
// anywhere; killing one of three nodes must not move the fleet-wide hit
// rate by more than 10 points; and the killed node, re-added with empty
// caches, must warm-start its first owned-key request from the shared
// store.
func TestMultiNodeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node load test skipped in -short mode")
	}
	const (
		seed     = 0xF1EE7
		hot      = 8
		perPhase = 60
		workers  = 8
	)
	dir := t.TempDir()
	store := fleet.NewDirStore(filepath.Join(dir, "store"))
	cfgs := make([]server.Config, fleetSize)
	nodes := startFleetNodes(t, fleetSize, func(i int, cfg *server.Config) {
		cfg.Service = core.ServiceConfig{CacheDir: filepath.Join(dir, fmt.Sprintf("node%d-disk", i)), Shared: store}
		cfg.Fleet.DownCooldown = 5 * time.Second
		cfgs[i] = *cfg
	})
	bodies, owner, victim := fleetCorpus(t, nodes, seed, hot, 12)
	rng := synth.NewRand(seed ^ 0x5EED5EED5EED5EED)

	// compiles sums pipeline compiles fleet-wide: a killed node's server
	// outlives its listener, so its frozen counters still count.
	compiles := func() (sum int64) {
		for _, nd := range nodes {
			sum += counter(t, nd.srv, "streammap_cache_misses_total")
		}
		return sum
	}
	// phase replays n requests, every one of which must be answered, and
	// returns the compiles they cost.
	phase := func(name string, n int, draw func(int) (int, int)) int64 {
		before := compiles()
		if tally := fleetPhase(nodes, bodies, workers, n, draw, nil); tally.ok != n {
			t.Errorf("%s: %d of %d requests failed, %d throttled (errors: %q)", name, n-tally.ok, n, tally.throttled, tally.errors)
		}
		return compiles() - before
	}

	// Warm-up: every hot key once, through the fleet path. Store writes
	// happen off the response path, and the rejoin check means nothing
	// before they land.
	phase("warmup", hot, toNonOwner(rng, owner))
	if t.Failed() {
		t.FailNow() // a fleet that cannot warm up makes every later check noise
	}
	for _, n := range nodes {
		if err := n.srv.Service().Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Steady state: known keys across every node — the fleet must answer
	// all of it without a single pipeline stage.
	steady := phase("steady", perPhase, toAnyBut(rng, -1, hot))
	if steady != 0 {
		t.Errorf("steady phase ran %d pipeline compiles for known keys; the fleet cache must absorb all of them", steady)
	}

	// Churn: kill the victim, keep the same traffic on the survivors.
	stopServer(t, nodes[victim].srv, nodes[victim].ts)
	churn := phase("churn", perPhase, toAnyBut(rng, victim, hot))
	if drop := float64(min(churn, perPhase)-steady) / perPhase; drop > 0.10 {
		t.Errorf("hit rate dropped %.1f points after losing 1 of %d nodes (%d compiles steady, %d in churn, of %d requests each); must stay within 10",
			drop*100, fleetSize, steady, churn, perPhase)
	}

	// Rejoin: the victim restarts cold — same URL, fresh private disk,
	// empty memory — and must answer its first request for a key it owns
	// from the shared store, not a compile.
	cfg := cfgs[victim]
	cfg.Service.CacheDir = filepath.Join(dir, fmt.Sprintf("node%d-disk-rejoin", victim))
	rebind(t, nodes[victim], cfg)
	status, body, err := postBody(nodes[victim].url+"/v1/compile", bodies[slices.Index(owner, victim)])
	stores := counter(t, nodes[victim].srv, "streammap_cache_hits_total", tier("store"))
	misses := counter(t, nodes[victim].srv, "streammap_cache_misses_total")
	if err != nil || status != http.StatusOK || misses != 0 || stores < 1 {
		t.Errorf("re-added node did not warm-start from the shared store (answer %d %v %.80s; store hits %d, compiles %d)",
			status, err, body, stores, misses)
	}
}

// TestChaosMix is the fault-injection acceptance run: a three-node fleet
// under a pinned seeded fault schedule (peer refusals, latency, corrupted
// and truncated peer bodies, torn/corrupted/ENOSPC writes, skewed
// clocks), plus a mid-run crash that tears the victim's disk tier and
// half the shared store before restarting it on the same directories.
// The bar: every response is a 200 or a 429, every 200's body is byte for
// byte a clean local compile of its key — ten or so independent compiles
// across three nodes, one encoding — and the run must prove faults
// actually fired and torn entries were actually quarantined: "zero
// errors" under silence would test nothing. It runs at two client and
// scenario sizes.
func TestChaosMix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load test skipped in -short mode")
	}
	for _, shape := range []struct {
		name                string
		workers, maxFilters int
	}{
		{"8_workers_12_filters", 8, 12},
		{"16_workers_16_filters", 16, 16},
	} {
		t.Run(shape.name, func(t *testing.T) { chaosMix(t, shape.workers, shape.maxFilters) })
	}
}

func chaosMix(t *testing.T, workers, maxFilters int) {
	const (
		seed     = 0xC4A0
		hot      = 6
		perPhase = 50
	)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	// One injector per node, schedule seeds decorrelated by node index. The
	// restarted victim keeps its injector: the schedule continues, it does
	// not replay.
	injs := make([]*faultinject.Injector, fleetSize)
	cfgs := make([]server.Config, fleetSize)
	nodes := startFleetNodes(t, fleetSize, func(i int, cfg *server.Config) {
		spec, s := chaosSpec, uint64(seed)
		spec.Seed = s*0x9E3779B97F4A7C15 + uint64(i+1)
		injs[i] = faultinject.New(spec)
		cfg.Service = core.ServiceConfig{
			CacheDir: filepath.Join(dir, fmt.Sprintf("node%d-disk", i)),
			Shared:   fleet.NewDirStore(storeDir).WithFaults(injs[i]),
		}
		// Short cooldown so breaker reopen/half-open and ring revival all
		// cycle within the run, under skewed clocks.
		cfg.Fleet.DownCooldown = 750 * time.Millisecond
		cfg.Fleet.RetryBackoff = time.Millisecond
		cfg.Faults = injs[i]
		cfgs[i] = *cfg
	})
	bodies, owner, victim := fleetCorpus(t, nodes, seed, hot, maxFilters)
	// Per key, the clean reference: a local compile no injector can touch.
	refs := map[int][]byte{}
	for k, body := range bodies {
		refs[k] = localCompile(t, body)
	}

	// phase replays n requests: every one must be a 200 or a 429, and every
	// 200's body the clean reference, byte for byte.
	phase := func(name string, n int, draw func(int) (int, int)) {
		tally := fleetPhase(nodes, bodies, workers, n, draw, func(node, key int, body []byte) {
			ref, i := refs[key], 0
			for i < len(ref) && i < len(body) && ref[i] == body[i] {
				i++
			}
			if i != len(ref) || i != len(body) {
				t.Errorf("%s: key %d via node %d: the %d bytes served part from the clean local compile's %d at byte %d", name, key, node, len(body), len(ref), i)
			}
		})
		if len(tally.errors) > 0 {
			t.Errorf("%s: %d non-429 errors under chaos (first: %s)", name, len(tally.errors), tally.errors[0])
		}
		if tally.ok+tally.throttled+len(tally.errors) != n {
			t.Errorf("%s accounting: %d ok + %d throttled + %d errors != %d requests", name, tally.ok, tally.throttled, len(tally.errors), n)
		}
	}
	rng := synth.NewRand(seed ^ 0xC4A05C4A05C4A05)
	anyNode := toAnyBut(rng, -1, hot) // every node is up whenever it draws

	// Warm-up offers every key to a non-owner, so the fleet paths (fetch,
	// proxy, store write) run under injection from the first request; then
	// known keys across every node while the injectors refuse, delay,
	// corrupt, tear and skew.
	phase("warmup", hot, toNonOwner(rng, owner))
	phase("chaos", perPhase, anyNode)

	// Crash: kill the victim, tear its disk tier and half the shared store
	// mid-file — the on-disk picture a real crash leaves — and restart it
	// on the same directories, so its warm start must quarantine its way
	// back to health.
	crashed := nodes[victim].srv
	stopServer(t, crashed, nodes[victim].ts)
	if tear(t, cfgs[victim].Service.CacheDir, 1)+tear(t, storeDir, 2) == 0 {
		t.Error("the crash phase tore no persistent entries; the quarantine path went untested")
	}
	rebind(t, nodes[victim], cfgs[victim])

	// Aftermath: the restarted victim sees every key first (its torn disk
	// entries must quarantine, never serve), then traffic spreads back
	// across the fleet.
	phase("aftermath", hot+perPhase, func(r int) (int, int) {
		if r < hot {
			return victim, r
		}
		return anyNode(r)
	})

	quarantined := counter(t, crashed, "streammap_corrupt_quarantined_total")
	for _, n := range nodes {
		quarantined += counter(t, n.srv, "streammap_corrupt_quarantined_total")
	}
	// Both fault classes must fire: peer-transport faults (which the
	// breaker, retries and hash verification absorb) and write faults
	// (which the atomic write recipe and quarantine absorb). Single kinds
	// within a class may draw zero on a quiet run — the number of seam
	// calls depends on cache state and timing even though each site's
	// schedule is pinned.
	var peer, write int64
	for _, in := range injs {
		s := in.Stats()
		peer += s.Refused + s.Delayed + s.Corrupted + s.Truncated
		write += s.Torn + s.BadFiles + s.NoSpace
	}
	t.Logf("faults fired: %d peer-transport, %d write; %d entries quarantined", peer, write, quarantined)
	if peer+write == 0 {
		t.Error("the fault schedule fired nothing; the run proved nothing")
	}
	if peer == 0 {
		t.Error("no peer-transport fault fired; the fleet hardening went untested")
	}
	if write == 0 {
		t.Error("no write fault fired; the durability hardening went untested")
	}
	if quarantined == 0 {
		t.Error("no entry was quarantined despite torn files; corrupt bytes were served or silently overwritten")
	}
}
