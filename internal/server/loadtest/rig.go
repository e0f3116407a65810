// Package loadtest holds the two fleet rigs: in-process streammapd fleets
// whose members listen on real loopback sockets, so peers reach each other
// over HTTP exactly as separate processes would, replaying seeded
// known-key compile traffic through a pool of client workers.
//
//   - RunMultiNode: several nodes sharing a consistent-hash ring and a
//     content-addressed store, with one node killed and re-added cold
//     mid-run. The fleet-wide hit rate must survive the churn, and the
//     rejoining node must warm-start from the store.
//   - RunChaos: the same fleet with a deterministic, seeded fault schedule
//     on every seam (peer transport, disk tier, shared store, membership
//     clocks), plus a crash that tears the victim's persistent entries
//     mid-file before it restarts on the same directories. Every response
//     must be a 429 or a 200 whose body is, byte for byte, the encoding of
//     a clean local compile.
//
// Both rigs own their servers. Single-node serving is measured by the
// benchmark harness (bench/: serve-hot, serve-disk, serve-mixed) and held
// to local compiles by internal/server's tests.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/fleet"
	"streammap/internal/obs"
	"streammap/internal/sdf"
	"streammap/internal/server"
	"streammap/internal/server/client"
	"streammap/internal/synth"
)

// mnNode is one in-process fleet member with a real TCP listener, so
// peers reach it over HTTP exactly as separate processes would, and it
// can be killed (listener and server closed) and re-added on the same
// address mid-run.
type mnNode struct {
	addr   string // reserved at rig construction; every (re)start binds it
	url    string
	cacheD string
	srv    *server.Server
	hs     *http.Server
	cl     *client.Client
	alive  bool
}

func (n *mnNode) start(cfg server.Config) error {
	ln, err := net.Listen("tcp", n.addr)
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

// fleetRig is what the fleet scenarios (multinode, chaos) share: the
// hot-key request corpus with its cache keys, a reserved address per node,
// the ring's picture of who owns which key, the nodes themselves and the
// worker pool that replays a phase of traffic against them. What a
// scenario keeps to itself is its node config, its seeded generator and
// the order it draws from it, and what it makes of each response.
type fleetRig struct {
	ctx     context.Context
	workers int
	timeout time.Duration

	dir      string // the run's directory; storeDir and the nodes' disk tiers live under it
	storeDir string
	reqs     []server.CompileRequest
	owner    []int // per request, the node whose ring segment holds its cache key
	urls     []string
	// victim is the node owning the most hot keys (always at least one, by
	// pigeonhole): losing it moves the largest share of the keyspace, and
	// its owned keys are the ones only the shared store can answer for it
	// after a cold restart.
	victim int
	nodes  []*mnNode
}

// newFleetRig generates the scenario's corpus and reserves the fleet's
// addresses; no node runs until start. An empty p.Dir means a fresh temp
// dir (left behind for inspection). name prefixes errors and the temp dir.
func newFleetRig(ctx context.Context, name string, p MultiNodeParams) (*fleetRig, error) {
	r := &fleetRig{ctx: ctx, workers: p.Workers, timeout: p.Timeout, dir: p.Dir}
	if r.dir == "" {
		d, err := os.MkdirTemp("", "streammap-"+name+"-*")
		if err != nil {
			return nil, err
		}
		r.dir = d
	}
	r.storeDir = filepath.Join(r.dir, "store")

	// Listeners first, so every node's config can name every URL. The
	// first listen reserves each port; the node then rebinds it in start
	// (SO_REUSEADDR makes the quick rebind safe).
	r.urls = make([]string, p.Nodes)
	r.nodes = make([]*mnNode, p.Nodes)
	for i := range r.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		r.urls[i] = "http://" + addr
		r.nodes[i] = &mnNode{
			addr:   addr,
			url:    r.urls[i],
			cacheD: filepath.Join(r.dir, fmt.Sprintf("node%d-disk", i)),
			cl:     client.New(r.urls[i]),
		}
	}
	ring, err := fleet.NewMembership(fleet.Config{SelfURL: r.urls[0], Peers: r.urls})
	if err != nil {
		return nil, err
	}

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
	r.reqs = make([]server.CompileRequest, p.HotKeys)
	r.owner = make([]int, p.HotKeys)
	owned := make([]int, p.Nodes)
	for k, sc := range corpus {
		g, err := sc.BuildGraph()
		if err != nil {
			return nil, fmt.Errorf("%s: scenario %d: %w", name, k, err)
		}
		r.reqs[k] = server.NewRequest(g, sc.Opts)
		hash, err := core.HashOf(g, sc.Opts)
		if err != nil {
			return nil, err
		}
		r.owner[k] = slices.Index(r.urls, ring.Owner(hash))
		owned[r.owner[k]]++
	}
	for i := range owned {
		if owned[i] > owned[r.victim] {
			r.victim = i
		}
	}
	return r, nil
}

// start brings every node up with cfg(i, its disk tier's directory). Pair
// it with a deferred stop, error or not.
func (r *fleetRig) start(cfg func(i int, cacheDir string) server.Config) error {
	for i, n := range r.nodes {
		if err := n.start(cfg(i, n.cacheD)); err != nil {
			return err
		}
	}
	return nil
}

// stop kills every node still alive.
func (r *fleetRig) stop() {
	for _, n := range r.nodes {
		if n.alive {
			n.kill()
		}
	}
}

// toNonOwner is the warm-up draw: request k is hot key k, offered to a
// node that does NOT own it, so the fleet path (proxy or fetch) populates
// the owner and the shared store in one pass.
func (r *fleetRig) toNonOwner(rng *synth.Rand) func(k int) (node, key int) {
	return func(k int) (int, int) {
		ni := rng.Intn(len(r.nodes))
		if ni == r.owner[k] {
			ni = (ni + 1) % len(r.nodes)
		}
		return ni, k
	}
}

// toAnyAlive is the steady-traffic draw: a random alive node, then a
// random hot key.
func (r *fleetRig) toAnyAlive(rng *synth.Rand) func(int) (node, key int) {
	return func(int) (int, int) {
		var alive []int
		for i, n := range r.nodes {
			if n.alive {
				alive = append(alive, i)
			}
		}
		return alive[rng.Intn(len(alive))], rng.Intn(len(r.reqs))
	}
}

// fleetResponse is one replayed request and what came back.
type fleetResponse struct {
	node, key int
	body      []byte // as served, undecoded
	err       error
}

// phase replays n known-key requests — request i goes to the node and key
// draw(i) names — and returns the responses in request order. The whole
// sequence is drawn up front on the calling goroutine — synth's pinned
// generator is not safe for concurrent draws — and the workers only
// consume it.
func (r *fleetRig) phase(n int, draw func(i int) (node, key int)) []fleetResponse {
	out := make([]fleetResponse, n)
	for i := range out {
		out[i].node, out[i].key = draw(i)
	}
	var wg sync.WaitGroup
	feed := make(chan *fleetResponse)
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rq := range feed {
				rctx, cancel := context.WithTimeout(r.ctx, r.timeout)
				rq.body, rq.err = compileBody(rctx, r.nodes[rq.node].cl, r.reqs[rq.key])
				cancel()
			}
		}()
	}
	for i := range out {
		feed <- &out[i]
	}
	close(feed)
	wg.Wait()
	return out
}

// compileBody posts req to cl's server over cl's transport and returns the
// response body as served: the rigs hold it to a reference encoding with
// sameBytes, so nothing decodes it. Failures take the client's shapes (a
// 429 is *client.Throttled).
func compileBody(ctx context.Context, cl *client.Client, req server.CompileRequest) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+"/v1/compile", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hc := cl.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil || resp.StatusCode == http.StatusOK:
		return body, err
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, &client.Throttled{Message: string(body)}
	default:
		return nil, &client.StatusError{Status: resp.StatusCode, Message: string(body)}
	}
}

// sameBytes holds a served body to its reference encoding: a key determines
// its bytes, so equality is bytes.Equal and neither side is decoded. A
// mismatch is placed by byte.
func sameBytes(ref, body []byte) error {
	if bytes.Equal(ref, body) {
		return nil
	}
	i := 0
	for i < len(ref) && i < len(body) && ref[i] == body[i] {
		i++
	}
	return fmt.Errorf("the %d bytes served part from the reference's %d at byte %d", len(body), len(ref), i)
}

// localArtifact compiles a wire request locally and encodes it — the bytes
// a server must answer that request with.
func localArtifact(ctx context.Context, req server.CompileRequest) ([]byte, error) {
	g, err := sdf.ImportGraph(req.Graph)
	if err != nil {
		return nil, err
	}
	opts, err := driver.ImportOptions(req.Options)
	if err != nil {
		return nil, err
	}
	opts.Workers = 2
	c, err := driver.Compile(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	a, err := c.Artifact()
	if err != nil {
		return nil, err
	}
	return a.Encode()
}

// count reads one counter sample as the integer it is; an absent series
// counts zero.
func count(m obs.Samples, name string, labels ...obs.Label) int64 {
	v, _ := m.Get(name, labels...)
	return int64(v)
}

func routeLabel(v string) obs.Label { return obs.Label{Key: "route", Value: v} }
func tierLabel(v string) obs.Label  { return obs.Label{Key: "tier", Value: v} }
