package loadtest

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"streammap/internal/core"
	"streammap/internal/fleet"
	"streammap/internal/server"
	"streammap/internal/synth"
)

// MultiNodeParams configures one fleet churn run.
type MultiNodeParams struct {
	Seed  uint64
	Nodes int // fleet size (default 3)
	// HotKeys is the known-key working set replayed in every phase
	// (default 8).
	HotKeys int
	// RequestsPerPhase is the traffic per steady/churn phase (default 60).
	RequestsPerPhase int
	Workers          int           // concurrent client workers (default 8)
	Timeout          time.Duration // per-request deadline (default 30s)
	MaxFilters       int           // scenario size bound (default 16)
	MaxGPUs          int           // scenario GPU bound (default 4)
	// Dir hosts the shared store and per-node private disk tiers. Empty
	// means a fresh temp dir (left behind for inspection).
	Dir string
}

func (p MultiNodeParams) withDefaults() MultiNodeParams {
	if p.Nodes <= 0 {
		p.Nodes = 3
	}
	if p.HotKeys <= 0 {
		p.HotKeys = 8
	}
	if p.RequestsPerPhase <= 0 {
		p.RequestsPerPhase = 60
	}
	if p.Workers <= 0 {
		p.Workers = 8
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	if p.MaxFilters <= 0 {
		p.MaxFilters = 16
	}
	if p.MaxGPUs <= 0 {
		p.MaxGPUs = 4
	}
	return p
}

// MultiNodePhase reports one traffic phase.
type MultiNodePhase struct {
	Name     string
	Requests int
	OK       int
	Errors   int
	// Compiles is the fleet-wide pipeline-compile delta during the phase —
	// 0 means every request was answered from some cache tier.
	Compiles int64
	// HitRate is the fraction of requests served without a compile.
	HitRate    float64
	FirstError string
}

// MultiNodeNode is one node's cumulative serving picture at the end of
// the run.
type MultiNodeNode struct {
	URL      string
	Requests int64 // requests the node answered (including proxied-in)
	Compiles int64 // pipeline compiles it ran
	MemHits  int64
	DiskHits int64
	// StoreHits counts shared-store reads — warm starts and
	// owner-down fallbacks that never reached the pipeline.
	StoreHits int64
	PeerHits  int64 // non-owned keys served via peer artifact fetch
	LocalHits int64 // non-owned keys served from this node's own caches
	Proxied   int64
	Fallbacks int64
	Killed    bool // this node was killed and re-added mid-run
}

// MultiNodeResult is one fleet churn run's report.
type MultiNodeResult struct {
	Params MultiNodeParams
	Nodes  []MultiNodeNode

	// Warmup offers every hot key once; Steady replays the hot set across
	// all nodes; Churn does the same with one node killed.
	Warmup, Steady, Churn MultiNodePhase

	// Rejoin is the warm-start check: the killed node restarts with empty
	// caches (fresh private disk) and answers its first request for a
	// fleet-known key it owns. RejoinStoreHits >= 1 with RejoinCompiles ==
	// 0 means the shared store warm-started it.
	RejoinStoreHits int64
	RejoinCompiles  int64
	RejoinOK        bool

	Duration time.Duration
}

// RunMultiNode brings up a fleet of in-process compile servers over one
// shared store, replays known-key traffic through warm-up, steady state
// and node churn, then re-adds the killed node cold and checks it
// warm-starts from the store.
func RunMultiNode(ctx context.Context, p MultiNodeParams) (*MultiNodeResult, error) {
	p = p.withDefaults()
	start := time.Now()
	rig, err := newFleetRig(ctx, "multinode", p)
	if err != nil {
		return nil, err
	}
	p.Dir = rig.dir
	res := &MultiNodeResult{Params: p}
	nodes, victim := rig.nodes, rig.victim

	nodeCfg := func(i int, cacheDir string) server.Config {
		return server.Config{
			Service: core.ServiceConfig{
				CacheDir: cacheDir,
				Shared:   fleet.NewDirStore(rig.storeDir),
			},
			Fleet: fleet.Config{
				SelfURL:      rig.urls[i],
				Peers:        rig.urls,
				DownCooldown: 5 * time.Second,
			},
		}
	}
	defer rig.stop()
	if err := rig.start(nodeCfg); err != nil {
		return nil, err
	}

	runPhase := func(name string, n int, draw func(r int) (node, key int)) MultiNodePhase {
		ph := MultiNodePhase{Name: name, Requests: n}
		before := fleetCompiles(nodes)
		for _, rs := range rig.phase(n, draw) {
			if rs.err == nil {
				ph.OK++
			} else {
				ph.Errors++
				if ph.FirstError == "" {
					ph.FirstError = rs.err.Error()
				}
			}
		}
		ph.Compiles = fleetCompiles(nodes) - before
		if n > 0 {
			ph.HitRate = float64(n-int(ph.Compiles)) / float64(n)
			if ph.HitRate < 0 {
				ph.HitRate = 0
			}
		}
		return ph
	}
	rng := synth.NewRand(p.Seed ^ 0x5EED5EED5EED5EED)

	// Warm-up: every hot key once, through the fleet path.
	res.Warmup = runPhase("warmup", p.HotKeys, rig.toNonOwner(rng))
	if res.Warmup.Errors > 0 {
		return res, fmt.Errorf("multinode: warm-up failed: %s", res.Warmup.FirstError)
	}
	// Store writes happen off the response path, and the rejoin check is
	// meaningless before they land.
	for _, n := range nodes {
		if err := n.srv.Service().Flush(ctx); err != nil {
			return res, err
		}
	}

	// Steady state: known keys across every node — the fleet must answer
	// all of it without a single pipeline stage.
	res.Steady = runPhase("steady", p.RequestsPerPhase, rig.toAnyAlive(rng))

	// Churn: kill the victim, keep the same traffic on the survivors.
	nodes[victim].kill()
	res.Churn = runPhase("churn", p.RequestsPerPhase, rig.toAnyAlive(rng))

	// Rejoin: the victim restarts cold — same URL, fresh private disk,
	// empty memory — and must answer its first request for a key it owns
	// from the shared store, not a compile.
	rejoinDisk := filepath.Join(p.Dir, fmt.Sprintf("node%d-disk-rejoin", victim))
	if err := nodes[victim].start(nodeCfg(victim, rejoinDisk)); err != nil {
		return res, fmt.Errorf("multinode: re-adding node: %w", err)
	}
	nodes[victim].cacheD = rejoinDisk
	rctx, cancel := context.WithTimeout(ctx, p.Timeout)
	_, rejoinErr := nodes[victim].cl.Compile(rctx, rig.reqs[slices.Index(rig.owner, victim)])
	cancel()
	m := nodes[victim].srv.Metrics()
	res.RejoinStoreHits = count(m, "streammap_cache_hits_total", tierLabel("store"))
	res.RejoinCompiles = count(m, "streammap_cache_misses_total")
	res.RejoinOK = rejoinErr == nil && res.RejoinCompiles == 0 && res.RejoinStoreHits >= 1

	for i, n := range nodes {
		m := n.srv.Metrics()
		res.Nodes = append(res.Nodes, MultiNodeNode{
			URL: n.url,
			Requests: count(m, "streammap_http_requests_total", routeLabel("compile")) +
				count(m, "streammap_http_requests_total", routeLabel("remap")),
			Compiles:  count(m, "streammap_cache_misses_total"),
			MemHits:   count(m, "streammap_cache_hits_total", tierLabel("memory")),
			DiskHits:  count(m, "streammap_cache_hits_total", tierLabel("disk")),
			StoreHits: count(m, "streammap_cache_hits_total", tierLabel("store")),
			PeerHits:  count(m, "streammap_fleet_peer_hits_total"),
			LocalHits: count(m, "streammap_fleet_local_hits_total"),
			Proxied:   count(m, "streammap_fleet_proxied_total"),
			Fallbacks: count(m, "streammap_fleet_fallbacks_total"),
			Killed:    i == victim,
		})
	}
	res.Duration = time.Since(start)
	return res, nil
}

// fleetCompiles sums pipeline compiles across every node, dead or alive —
// server objects outlive their HTTP listeners, so a killed node's frozen
// counters still participate in phase deltas.
func fleetCompiles(nodes []*mnNode) int64 {
	var total int64
	for _, n := range nodes {
		total += count(n.srv.Metrics(), "streammap_cache_misses_total")
	}
	return total
}

// Fprint renders the run report.
func (r *MultiNodeResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "multinode: %d nodes, %d hot keys, %d req/phase, seed=%#x (%.2fs)\n",
		r.Params.Nodes, r.Params.HotKeys, r.Params.RequestsPerPhase, r.Params.Seed, r.Duration.Seconds())
	for _, ph := range []MultiNodePhase{r.Warmup, r.Steady, r.Churn} {
		fmt.Fprintf(w, "  %-7s %3d requests: %3d ok, %d errors, %2d compiles, hit rate %5.1f%%\n",
			ph.Name, ph.Requests, ph.OK, ph.Errors, ph.Compiles, ph.HitRate*100)
		if ph.FirstError != "" {
			fmt.Fprintf(w, "          first error: %s\n", ph.FirstError)
		}
	}
	fmt.Fprintf(w, "  rejoin: store hits %d, compiles %d -> %s\n",
		r.RejoinStoreHits, r.RejoinCompiles, map[bool]string{true: "warm-started from shared store", false: "COLD (warm start failed)"}[r.RejoinOK])
	for _, n := range r.Nodes {
		killed := ""
		if n.Killed {
			killed = " (killed+re-added)"
		}
		fmt.Fprintf(w, "  node %s%s: %d requests, %d compiles, %d mem, %d disk, %d store, %d peer, %d local, %d proxied, %d fallbacks\n",
			n.URL, killed, n.Requests, n.Compiles, n.MemHits, n.DiskHits, n.StoreHits, n.PeerHits, n.LocalHits, n.Proxied, n.Fallbacks)
	}
}
