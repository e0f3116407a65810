package loadtest

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"streammap/internal/core"
	"streammap/internal/fleet"
	"streammap/internal/server"
	"streammap/internal/server/client"
	"streammap/internal/synth"
)

// MixMultiNode is the fleet-serving scenario: several in-process nodes
// sharing a consistent-hash ring and a content-addressed store, with one
// node killed and re-added mid-run. Unlike the single-server mixes it
// owns its servers, so it runs through RunMultiNode rather than Run.
const MixMultiNode Mix = "multinode"

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

// mnNode is one in-process fleet member with a real TCP listener, so
// peers reach it over HTTP exactly as separate processes would, and it
// can be killed (listener and server closed) and re-added on the same
// address mid-run.
type mnNode struct {
	url    string
	cacheD string
	srv    *server.Server
	hs     *http.Server
	cl     *client.Client
	alive  bool
}

func (n *mnNode) start(cfg server.Config, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.srv = server.New(cfg)
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go n.hs.Serve(ln)
	n.alive = true
	return nil
}

// kill closes the listener and waits for what the node still had running
// in the background (detached compiles, persistent-tier writes), so
// nothing of it touches the directories after kill returns.
func (n *mnNode) kill() {
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Close(ctx) // past the deadline the node is abandoned, which is what kill means
	n.alive = false
}

// RunMultiNode brings up a fleet of in-process compile servers over one
// shared store, replays known-key traffic through warm-up, steady state
// and node churn, then re-adds the killed node cold and checks it
// warm-starts from the store.
func RunMultiNode(ctx context.Context, p MultiNodeParams) (*MultiNodeResult, error) {
	p = p.withDefaults()
	if p.Dir == "" {
		d, err := os.MkdirTemp("", "streammap-multinode-*")
		if err != nil {
			return nil, err
		}
		p.Dir = d
	}
	res := &MultiNodeResult{Params: p}
	start := time.Now()

	// The request corpus: HotKeys known scenarios.
	corpus, err := synth.Corpus(synth.CorpusParams{
		Seed:       p.Seed,
		Scenarios:  p.HotKeys,
		MaxFilters: p.MaxFilters,
		MaxGPUs:    p.MaxGPUs,
		Workers:    2,
	})
	if err != nil {
		return nil, err
	}
	reqs := make([]server.CompileRequest, p.HotKeys)
	hashes := make([]string, p.HotKeys)
	for i, sc := range corpus {
		g, err := sc.BuildGraph()
		if err != nil {
			return nil, fmt.Errorf("multinode: scenario %d: %w", i, err)
		}
		reqs[i] = server.NewRequest(g, sc.Opts)
		if hashes[i], err = core.HashOf(g, sc.Opts); err != nil {
			return nil, err
		}
	}

	// Listeners first, so every node's config can name every URL. The
	// first listen reserves each port; the node then rebinds it in start
	// (SO_REUSEADDR makes the quick rebind safe).
	addrs := make([]string, p.Nodes)
	urls := make([]string, p.Nodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
		ln.Close()
	}
	storeDir := filepath.Join(p.Dir, "store")
	nodes := make([]*mnNode, p.Nodes)
	nodeCfg := func(i int, cacheDir string) server.Config {
		return server.Config{
			Service: core.ServiceConfig{
				CacheDir: cacheDir,
				Shared:   fleet.NewDirStore(storeDir),
			},
			Fleet: fleet.Config{
				SelfURL:      urls[i],
				Peers:        urls,
				DownCooldown: 5 * time.Second,
			},
		}
	}
	for i := range nodes {
		nodes[i] = &mnNode{
			url:    urls[i],
			cacheD: filepath.Join(p.Dir, fmt.Sprintf("node%d-disk", i)),
			cl:     client.New(urls[i]),
		}
		if err := nodes[i].start(nodeCfg(i, nodes[i].cacheD), addrs[i]); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, n := range nodes {
			if n.alive {
				n.kill()
			}
		}
	}()

	// The full ring, for picking the victim: the node owning the most hot
	// keys (always at least one, by pigeonhole) — killing it maximizes the
	// keyspace the survivors must cover, and its owned keys are the ones
	// the rejoin phase can only answer from the shared store.
	ring, err := fleet.NewMembership(fleet.Config{SelfURL: urls[0], Peers: urls})
	if err != nil {
		return nil, err
	}
	owned := make([][]int, p.Nodes)
	for k, h := range hashes {
		for i, u := range urls {
			if ring.Owner(h) == u {
				owned[i] = append(owned[i], k)
			}
		}
	}
	victim := 0
	for i := range owned {
		if len(owned[i]) > len(owned[victim]) {
			victim = i
		}
	}

	// Phase driver: replay n known-key requests across the alive nodes.
	// The full (node, key) sequence is drawn up front on this goroutine —
	// synth's pinned generator is not safe for concurrent draws — and the
	// workers only consume it.
	type pick struct{ node, key int }
	runPhase := func(name string, n int, draw func(r int) (node, key int)) MultiNodePhase {
		ph := MultiNodePhase{Name: name, Requests: n}
		picks := make([]pick, n)
		for r := range picks {
			picks[r].node, picks[r].key = draw(r)
		}
		before := fleetCompiles(nodes)
		var mu sync.Mutex
		var wg sync.WaitGroup
		feed := make(chan pick)
		for w := 0; w < p.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pk := range feed {
					rctx, cancel := context.WithTimeout(ctx, p.Timeout)
					_, err := nodes[pk.node].cl.Compile(rctx, reqs[pk.key])
					cancel()
					mu.Lock()
					if err == nil {
						ph.OK++
					} else {
						ph.Errors++
						if ph.FirstError == "" {
							ph.FirstError = err.Error()
						}
					}
					mu.Unlock()
				}
			}()
		}
		for _, pk := range picks {
			feed <- pk
		}
		close(feed)
		wg.Wait()
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
	aliveIdx := func() []int {
		var idx []int
		for i, n := range nodes {
			if n.alive {
				idx = append(idx, i)
			}
		}
		return idx
	}

	// Warm-up: every hot key once, each offered to a node that does NOT
	// own it, so the fleet path (proxy or fetch) populates the owner AND
	// the shared store in one pass.
	res.Warmup = runPhase("warmup", p.HotKeys, func(r int) (int, int) {
		ni := rng.Intn(p.Nodes)
		if urls[ni] == ring.Owner(hashes[r]) {
			ni = (ni + 1) % p.Nodes
		}
		return ni, r
	})
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
	res.Steady = runPhase("steady", p.RequestsPerPhase, func(int) (int, int) {
		idx := aliveIdx()
		return idx[rng.Intn(len(idx))], rng.Intn(p.HotKeys)
	})

	// Churn: kill the victim, keep the same traffic on the survivors.
	nodes[victim].kill()
	res.Churn = runPhase("churn", p.RequestsPerPhase, func(int) (int, int) {
		idx := aliveIdx()
		return idx[rng.Intn(len(idx))], rng.Intn(p.HotKeys)
	})

	// Rejoin: the victim restarts cold — same URL, fresh private disk,
	// empty memory — and must answer its first request for a key it owns
	// from the shared store, not a compile.
	rejoinDisk := filepath.Join(p.Dir, fmt.Sprintf("node%d-disk-rejoin", victim))
	if err := nodes[victim].start(nodeCfg(victim, rejoinDisk), addrs[victim]); err != nil {
		return res, fmt.Errorf("multinode: re-adding node: %w", err)
	}
	nodes[victim].cacheD = rejoinDisk
	rctx, cancel := context.WithTimeout(ctx, p.Timeout)
	_, rejoinErr := nodes[victim].cl.Compile(rctx, reqs[owned[victim][0]])
	cancel()
	st := nodes[victim].srv.Stats()
	res.RejoinStoreHits = st.Service.StoreHits
	res.RejoinCompiles = st.Service.Misses
	res.RejoinOK = rejoinErr == nil && res.RejoinCompiles == 0 && res.RejoinStoreHits >= 1

	for i, n := range nodes {
		st := n.srv.Stats()
		mn := MultiNodeNode{
			URL:      n.url,
			Requests: st.Requests,
			Compiles: st.Service.Misses,
			MemHits:  st.Service.Hits,
			DiskHits: st.Service.DiskHits,

			StoreHits: st.Service.StoreHits,
			Killed:    i == victim,
		}
		if st.Fleet != nil {
			mn.PeerHits = st.Fleet.PeerHits
			mn.LocalHits = st.Fleet.LocalHits
			mn.Proxied = st.Fleet.Proxied
			mn.Fallbacks = st.Fleet.Fallbacks
		}
		res.Nodes = append(res.Nodes, mn)
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
		total += n.srv.Stats().Service.Misses
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
