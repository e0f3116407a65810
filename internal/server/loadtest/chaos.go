package loadtest

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streammap/internal/core"
	"streammap/internal/faultinject"
	"streammap/internal/fleet"
	"streammap/internal/obs"
	"streammap/internal/server"
	"streammap/internal/server/client"
	"streammap/internal/synth"
)

// ChaosParams configures one chaos run.
type ChaosParams struct {
	Seed  uint64
	Nodes int // fleet size (default 3)
	// HotKeys is the known-key working set replayed in every phase
	// (default 6); each key's clean local compile is the equivalence
	// reference for everything the fleet serves.
	HotKeys int
	// RequestsPerPhase is the traffic per chaos phase (default 50).
	RequestsPerPhase int
	Workers          int           // concurrent client workers (default 8)
	Timeout          time.Duration // per-request deadline (default 30s)
	MaxFilters       int           // scenario size bound (default 16)
	MaxGPUs          int           // scenario GPU bound (default 4)
	// Dir hosts the shared store and per-node disk tiers. Empty means a
	// fresh temp dir (left behind for inspection).
	Dir string
	// Spec is the fault mix every node injects (each node derives its own
	// schedule seed from Seed and its index, so the fleet's faults are
	// decorrelated but pinned). The zero Spec means DefaultChaosSpec.
	Spec faultinject.Spec
}

// DefaultChaosSpec is the standard chaos mix: every fault class enabled
// at rates high enough that a ~150-request run fires all of them, low
// enough that the fleet stays mostly functional — degraded serving is the
// regime under test, not a full outage.
func DefaultChaosSpec(seed uint64) faultinject.Spec {
	return faultinject.Spec{
		Seed:         seed,
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
}

// fleet is the run's fleet shape in the form the shared rig takes.
func (p ChaosParams) fleet() MultiNodeParams {
	return MultiNodeParams{
		Seed: p.Seed, Nodes: p.Nodes, HotKeys: p.HotKeys, RequestsPerPhase: p.RequestsPerPhase,
		Workers: p.Workers, Timeout: p.Timeout, MaxFilters: p.MaxFilters, MaxGPUs: p.MaxGPUs, Dir: p.Dir,
	}
}

// withDefaults fills chaos's own defaults, then the fleet shape's.
func (p ChaosParams) withDefaults() ChaosParams {
	if p.HotKeys <= 0 {
		p.HotKeys = 6
	}
	if p.RequestsPerPhase <= 0 {
		p.RequestsPerPhase = 50
	}
	f := p.fleet().withDefaults()
	p.Nodes, p.Workers, p.Timeout, p.MaxFilters, p.MaxGPUs = f.Nodes, f.Workers, f.Timeout, f.MaxFilters, f.MaxGPUs
	if !p.Spec.Enabled() {
		p.Spec = DefaultChaosSpec(p.Seed)
	}
	return p
}

// ChaosPhase reports one traffic phase. OK responses have all been held to
// the clean reference's bytes — mismatches land in
// ChaosResult.EquivalenceFailures, not here.
type ChaosPhase struct {
	Name       string
	Requests   int
	OK         int
	Throttled  int // 429s — shed load, allowed under chaos
	Errors     int // anything else: the availability bar is broken
	FirstError string
}

// ChaosResult is one chaos run's report.
type ChaosResult struct {
	Params ChaosParams
	Spec   faultinject.Spec

	// Warmup seeds the fleet under fault injection; Chaos replays the hot
	// set across all nodes; Aftermath does the same after the victim node
	// crashed, had its persistent entries truncated mid-file, and
	// restarted on the same directories.
	Warmup, Chaos, Aftermath ChaosPhase

	// Faults sums the faults every node's injector actually fired — the
	// proof that "zero errors" was earned under fire, not under silence.
	Faults faultinject.Stats
	// TruncatedDisk/TruncatedStore count the entries the crash phase tore
	// mid-file in the victim's disk tier and the shared store.
	TruncatedDisk, TruncatedStore int
	// Quarantined sums entries the fleet moved aside to *.corrupt after
	// failed validation (torn files from the crash, injected silent
	// corruption) instead of serving or silently overwriting them.
	Quarantined int64
	// Compiles is the fleet-wide pipeline-compile total — chaos trades
	// efficiency for availability, so this is informational, not a bar.
	Compiles     int64
	Fallbacks    int64
	BreakerOpens int64
	BreakerSkips int64
	PeerRetries  int64
	PeerBadBytes int64
	RingMoves    int64

	// EquivalenceFailures lists every 200 response whose body was not the
	// encoding of the clean local compile of the same request.
	// Non-empty means the hardening leaked wrong bytes to a client.
	EquivalenceFailures []string

	Duration time.Duration
}

// RunChaos compiles a clean reference artifact for every hot key, brings
// up a fleet of in-process compile servers with deterministic fault
// injection threaded through every seam (peer transport, disk tier,
// shared store, membership clocks), replays known-key traffic, crashes
// one node and truncates its persistent entries mid-file, restarts it on
// the same directories, and keeps the traffic coming. Every 200's body is
// compared with the clean reference's bytes.
func RunChaos(ctx context.Context, p ChaosParams) (*ChaosResult, error) {
	p = p.withDefaults()
	start := time.Now()
	rig, err := newFleetRig(ctx, "chaos", p.fleet())
	if err != nil {
		return nil, err
	}
	p.Dir = rig.dir
	res := &ChaosResult{Params: p, Spec: p.Spec}
	nodes, victim, storeDir := rig.nodes, rig.victim, rig.storeDir

	// Per key, the clean reference bytes — compiled and encoded locally
	// before any injector exists, so the references cannot be touched by
	// the chaos tier.
	refs := make([][]byte, p.HotKeys)
	for i, req := range rig.reqs {
		if refs[i], err = localArtifact(ctx, req); err != nil {
			return nil, fmt.Errorf("chaos: reference compile %d: %w", i, err)
		}
	}

	// One injector per node, schedule seeds decorrelated by node index.
	// Restarting a node reuses its injector: the schedule continues, it
	// does not replay.
	injs := make([]*faultinject.Injector, p.Nodes)
	for i := range injs {
		spec := p.Spec
		spec.Seed = p.Seed*0x9E3779B97F4A7C15 + uint64(i+1)
		injs[i] = faultinject.New(spec)
	}
	nodeCfg := func(i int, cacheDir string) server.Config {
		return server.Config{
			Service: core.ServiceConfig{
				CacheDir: cacheDir,
				Shared:   fleet.NewDirStore(storeDir).WithFaults(injs[i]),
			},
			Fleet: fleet.Config{
				SelfURL: rig.urls[i],
				Peers:   rig.urls,
				// Short cooldown so breaker reopen/half-open and ring
				// revival all cycle within the run, under skewed clocks.
				DownCooldown: 750 * time.Millisecond,
				RetryBackoff: time.Millisecond,
			},
			Faults: injs[i],
		}
	}
	defer rig.stop()
	if err := rig.start(nodeCfg); err != nil {
		return nil, err
	}
	// Per-node client transports, so the victim's stale keep-alive
	// connections can be flushed after its restart — a real client re-dials
	// a crashed-and-restarted node; a pooled dead conn EOFs instead.
	trs := make([]*http.Transport, p.Nodes)
	for i, n := range nodes {
		trs[i] = &http.Transport{}
		n.cl = &client.Client{BaseURL: n.url, HTTP: &http.Client{Transport: trs[i]}}
	}

	// Every 200's body must be the clean reference, byte for byte.
	runPhase := func(name string, n int, draw func(r int) (node, key int)) ChaosPhase {
		ph := ChaosPhase{Name: name, Requests: n}
		for _, rs := range rig.phase(n, draw) {
			if rs.err == nil {
				ph.OK++
				if eqErr := sameBytes(refs[rs.key], rs.body); eqErr != nil {
					res.EquivalenceFailures = append(res.EquivalenceFailures,
						fmt.Sprintf("%s: key %d via node %d: %v", name, rs.key, rs.node, eqErr))
				}
			} else if _, ok := client.IsThrottled(rs.err); ok {
				ph.Throttled++
			} else {
				ph.Errors++
				if ph.FirstError == "" {
					ph.FirstError = rs.err.Error()
				}
			}
		}
		return ph
	}
	rng := synth.NewRand(p.Seed ^ 0xC4A05C4A05C4A05)
	anyNode := rig.toAnyAlive(rng) // every node is alive whenever chaos draws

	// Warm-up: every hot key offered once to a non-owner, so the fleet
	// paths (fetch, proxy, store write) run under injection from the very
	// first request.
	res.Warmup = runPhase("warmup", p.HotKeys, rig.toNonOwner(rng))

	// Chaos steady state: known keys across every node while the injectors
	// refuse, delay, corrupt, tear and skew.
	res.Chaos = runPhase("chaos", p.RequestsPerPhase, anyNode)

	// Crash: kill the victim, tear its disk tier and half the shared store
	// mid-file — the on-disk picture a real crash leaves — and restart it
	// on the SAME directories, so its warm start must quarantine its way
	// back to health.
	nodes[victim].kill()
	// The restart replaces the victim's server object, so bank its
	// pre-crash counters now.
	scrapes := []obs.Samples{nodes[victim].srv.Metrics()}
	if res.TruncatedDisk, err = truncateEntries(nodes[victim].cacheD, 1); err != nil {
		return res, fmt.Errorf("chaos: tearing disk tier: %w", err)
	}
	if res.TruncatedStore, err = truncateEntries(storeDir, 2); err != nil {
		return res, fmt.Errorf("chaos: tearing store: %w", err)
	}
	if err := nodes[victim].start(nodeCfg(victim, nodes[victim].cacheD)); err != nil {
		return res, fmt.Errorf("chaos: restarting victim: %w", err)
	}
	// Drop connections pooled against the dead listener: a POST on one
	// EOFs without retry, which would be a harness artifact, not a serving
	// failure.
	trs[victim].CloseIdleConnections()

	// Aftermath: the restarted victim sees every hot key first (its torn
	// disk entries must quarantine, never serve), then traffic spreads
	// back across the fleet.
	res.Aftermath = runPhase("aftermath", p.HotKeys+p.RequestsPerPhase, func(r int) (int, int) {
		if r < p.HotKeys {
			return victim, r
		}
		return anyNode(r)
	})

	for _, n := range nodes {
		scrapes = append(scrapes, n.srv.Metrics())
	}
	for i := range injs {
		res.Faults.Add(injs[i].Stats())
	}
	for _, m := range scrapes {
		res.Quarantined += count(m, "streammap_corrupt_quarantined_total")
		res.Compiles += count(m, "streammap_cache_misses_total")
		res.Fallbacks += count(m, "streammap_fleet_fallbacks_total")
		res.BreakerOpens += count(m, "streammap_fleet_breaker_opens_total")
		res.BreakerSkips += count(m, "streammap_fleet_breaker_skips_total")
		res.PeerRetries += count(m, "streammap_fleet_peer_retries_total")
		res.PeerBadBytes += count(m, "streammap_fleet_peer_bad_bytes_total")
		res.RingMoves += count(m, "streammap_fleet_ring_moves_permille")
	}
	sort.Strings(res.EquivalenceFailures)
	res.Duration = time.Since(start)
	return res, nil
}

// truncateEntries tears every stride-th committed artifact entry in dir
// to half its bytes, in place — the persistent-tier picture a crash
// mid-write would leave if the write path were not atomic, and the input
// the quarantine path must catch. Entries are walked in sorted order so
// the set torn is deterministic. A missing directory tears nothing.
func truncateEntries(dir string, stride int) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".artifact.json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	torn := 0
	for i, name := range names {
		if i%stride != 0 {
			continue
		}
		path := filepath.Join(dir, name)
		fi, err := os.Stat(path)
		if err != nil {
			return torn, err
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			return torn, err
		}
		torn++
	}
	return torn, nil
}

// Availability reports whether every request in every phase was answered
// with a 200 or a 429 — the chaos bar.
func (r *ChaosResult) Availability() bool {
	return r.Warmup.Errors == 0 && r.Chaos.Errors == 0 && r.Aftermath.Errors == 0
}

// Fprint renders the run report.
func (r *ChaosResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "chaos: %d nodes, %d hot keys, %d req/phase, seed=%#x (%.2fs)\n",
		r.Params.Nodes, r.Params.HotKeys, r.Params.RequestsPerPhase, r.Params.Seed, r.Duration.Seconds())
	fmt.Fprintf(w, "  fault spec: %s\n", r.Spec)
	for _, ph := range []ChaosPhase{r.Warmup, r.Chaos, r.Aftermath} {
		fmt.Fprintf(w, "  %-9s %3d requests: %3d ok, %d throttled, %d errors\n",
			ph.Name, ph.Requests, ph.OK, ph.Throttled, ph.Errors)
		if ph.FirstError != "" {
			fmt.Fprintf(w, "            first error: %s\n", ph.FirstError)
		}
	}
	f := r.Faults
	fmt.Fprintf(w, "  faults fired: %d refused, %d delayed, %d corrupted, %d truncated, %d torn, %d bad files, %d enospc (%d total)\n",
		f.Refused, f.Delayed, f.Corrupted, f.Truncated, f.Torn, f.BadFiles, f.NoSpace, f.Total())
	fmt.Fprintf(w, "  crash: tore %d disk + %d store entries; fleet quarantined %d\n",
		r.TruncatedDisk, r.TruncatedStore, r.Quarantined)
	fmt.Fprintf(w, "  hardening: %d fallbacks, %d breaker opens, %d breaker skips, %d peer retries, %d bad peer bytes, %d ring moves\n",
		r.Fallbacks, r.BreakerOpens, r.BreakerSkips, r.PeerRetries, r.PeerBadBytes, r.RingMoves)
	fmt.Fprintf(w, "  compiles fleet-wide: %d\n", r.Compiles)
	for _, e := range r.EquivalenceFailures {
		fmt.Fprintf(w, "  EQUIVALENCE FAIL: %s\n", e)
	}
	if len(r.EquivalenceFailures) == 0 {
		ok := r.Warmup.OK + r.Chaos.OK + r.Aftermath.OK
		fmt.Fprintf(w, "  equivalence: all %d served artifacts identical to clean local compiles\n", ok)
	}
}
