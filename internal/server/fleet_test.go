package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/fleet"
	"streammap/internal/obs"
	"streammap/internal/sdf"
	"streammap/internal/server"
	"streammap/internal/topology"
)

// fleetNode is one in-process fleet member.
type fleetNode struct {
	srv *server.Server
	ts  *httptest.Server
	url string
	// requests counts what the listener handed the node, peers' hops
	// included (until a rebind replaces the server).
	requests atomic.Int64
}

// startFleetNodes brings up n servers that know each other as one fleet.
// Listeners are created unstarted first so every node's config can name
// every URL before any server exists.
func startFleetNodes(t *testing.T, n int, mutate func(i int, cfg *server.Config)) []*fleetNode {
	t.Helper()
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + tss[i].Listener.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range tss {
		cfg := server.Config{
			Fleet: fleet.Config{
				SelfURL: urls[i],
				Peers:   urls,
				// Tests observe an opened circuit's effects; keep them
				// from expiring mid-assertion.
				DownCooldown: time.Hour,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := server.New(cfg)
		node := &fleetNode{srv: srv, ts: tss[i], url: urls[i]}
		h := srv.Handler()
		tss[i].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.requests.Add(1)
			h.ServeHTTP(w, r)
		})
		tss[i].Start()
		t.Cleanup(func() { stopServer(t, srv, tss[i]) })
		nodes[i] = node
	}
	return nodes
}

// fleetRing rebuilds the ring the nodes share, for picking owners from
// the outside. Deterministic ownership across processes is the ring
// contract (TestRingDeterministicOwnership); this helper leans on it.
func fleetRing(t *testing.T, nodes []*fleetNode) *fleet.Membership {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	m, err := fleet.NewMembership(fleet.Config{SelfURL: urls[0], Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// keyHashOf computes the fleet routing hash of (g, opts) — the same
// identity the server derives, since Workers never enters the key.
func keyHashOf(t *testing.T, g *sdf.Graph, opts driver.Options) string {
	t.Helper()
	hash, err := core.HashOf(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// graphsOwnedBy scans graph sizes until n keys land on nodes[want], so
// tests can aim requests at a chosen owner deterministically.
func graphsOwnedBy(t *testing.T, nodes []*fleetNode, want, n int) ([]*sdf.Graph, driver.Options) {
	t.Helper()
	opts := testOpts(2)
	ring := fleetRing(t, nodes)
	var graphs []*sdf.Graph
	for size := 2; size <= 128 && len(graphs) < n; size++ {
		g := appGraph(t, "DES", size)
		if ring.Owner(keyHashOf(t, g, opts)) == nodes[want].url {
			graphs = append(graphs, g)
		}
	}
	if len(graphs) < n {
		t.Fatalf("only %d keys owned by node %d in sizes [2,128], want %d", len(graphs), want, n)
	}
	return graphs, opts
}

// graphOwnedBy is graphsOwnedBy's first key.
func graphOwnedBy(t *testing.T, nodes []*fleetNode, want int) (*sdf.Graph, driver.Options) {
	t.Helper()
	graphs, opts := graphsOwnedBy(t, nodes, want, 1)
	return graphs[0], opts
}

// TestFleetPeerArtifactFetch: a key compiled on its owner is served to a
// request arriving at any other node through one proxied compile that the
// owner answers from its table — no pipeline stage runs on either node
// again, and the relayed copy makes the key a local hit from then on.
func TestFleetPeerArtifactFetch(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	g, opts := graphOwnedBy(t, nodes, 0)
	ctx := context.Background()
	req := server.NewRequest(g, opts)

	want, err := postJSON(ctx, nodes[0].url+"/v1/compile", req)
	if err != nil {
		t.Fatal(err)
	}
	if misses, proxied := counter(t, nodes[0].srv, "streammap_cache_misses_total"), counter(t, nodes[0].srv, "streammap_fleet_proxied_total"); misses != 1 || proxied != 0 {
		t.Fatalf("owner should compile its own key locally: %d compiles, %d proxied", misses, proxied)
	}

	got, err := postJSON(ctx, nodes[1].url+"/v1/compile", req)
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.EquivalentArtifacts(want, got); err != nil {
		t.Fatalf("relayed artifact differs from owner's: %v", err)
	}
	if proxied := counter(t, nodes[1].srv, "streammap_fleet_proxied_total"); proxied != 1 {
		t.Fatalf("expected one proxied request: %d proxied", proxied)
	}
	if owner, entry := counter(t, nodes[0].srv, "streammap_cache_misses_total"), counter(t, nodes[1].srv, "streammap_cache_misses_total"); owner != 1 || entry != 0 {
		t.Fatalf("%d compiles on the owner, %d on the entry node; want the owner's one", owner, entry)
	}

	// The relayed copy replicated the key: next time it's a local answer.
	if _, err := postJSON(ctx, nodes[1].url+"/v1/compile", req); err != nil {
		t.Fatal(err)
	}
	if hits := counter(t, nodes[1].srv, "streammap_fleet_local_hits_total"); hits != 1 {
		t.Fatalf("hot non-owned key not served locally: %d local hits", hits)
	}
}

// TestFleetProxyColdKey: a cold key arriving at a non-owner is proxied to
// its owner — the owner compiles it (once), the proxying node caches the
// answer, and the owner's latency sample is told apart from a client's:
// client-facing samples are a node's count less what peers forwarded to it,
// so fleet-wide the request is one sample, on the node the client talked to.
func TestFleetProxyColdKey(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	g, opts := graphOwnedBy(t, nodes, 0)
	ctx := context.Background()
	req := server.NewRequest(g, opts)

	if _, err := postJSON(ctx, nodes[2].url+"/v1/compile", req); err != nil {
		t.Fatal(err)
	}
	proxier, owner := nodes[2].srv, nodes[0].srv
	if proxied, misses := counter(t, proxier, "streammap_fleet_proxied_total"), counter(t, proxier, "streammap_cache_misses_total"); proxied != 1 || misses != 0 {
		t.Fatalf("expected one proxied request, no local compile: %d proxied, %d compiles", proxied, misses)
	}
	if misses, forwarded := counter(t, owner, "streammap_cache_misses_total"), counter(t, owner, "streammap_fleet_forwarded_total"); misses != 1 || forwarded != 1 {
		t.Fatalf("owner should have compiled the forwarded request: %d compiles, %d forwarded", misses, forwarded)
	}

	// The proxied answer was ingested: the key is now local on the proxier.
	if _, err := postJSON(ctx, nodes[2].url+"/v1/compile", req); err != nil {
		t.Fatal(err)
	}
	if hits := counter(t, proxier, "streammap_fleet_local_hits_total"); hits != 1 {
		t.Fatalf("proxied answer not cached locally: %d local hits", hits)
	}

	// The latency record is written after the response: wait the handlers out.
	nodes[0].ts.Close()
	nodes[2].ts.Close()
	clientFacing := func(srv *server.Server) int64 {
		return counter(t, srv, "streammap_request_duration_seconds_count", route("compile")) -
			counter(t, srv, "streammap_fleet_forwarded_total")
	}
	if n := clientFacing(owner); n != 0 {
		t.Errorf("forwarded request counts as %d client-facing latency samples on the owner — double-counted", n)
	}
	if clientFacing(proxier) == 0 {
		t.Error("proxying node recorded no latency sample for the request it answered")
	}
}

// TestFleetOneOwnerRequestPerMiss: a non-owner's miss costs the key's
// owner exactly one request, whether the owner must compile the key or
// already holds it, and a repeat costs it none — the relayed copy is a
// local hit. The owner's listener counts what it is handed, and a request
// reaches it before the relay of its answer does, so the counts are exact.
func TestFleetOneOwnerRequestPerMiss(t *testing.T) {
	nodes := startFleetNodes(t, 2, nil)
	graphs, opts := graphsOwnedBy(t, nodes, 0, 2)
	cold, held := graphs[0], graphs[1]
	owner, entry := nodes[0], nodes[1]
	ctx := context.Background()
	if _, err := postJSON(ctx, owner.url+"/v1/compile", server.NewRequest(held, opts)); err != nil {
		t.Fatal(err)
	}

	for _, step := range []struct {
		name string
		g    *sdf.Graph
		want int64
	}{
		{"cold key", cold, 1},
		{"key the owner holds", held, 1},
		{"repeat of the cold key", cold, 0},
		{"repeat of the held key", held, 0},
	} {
		before := owner.requests.Load()
		if _, err := postJSON(ctx, entry.url+"/v1/compile", server.NewRequest(step.g, opts)); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := owner.requests.Load() - before; got != step.want {
			t.Errorf("%s: the owner was asked %d times, want %d", step.name, got, step.want)
		}
	}
	if misses := counter(t, owner.srv, "streammap_cache_misses_total"); misses != 2 {
		t.Errorf("owner ran %d compiles for two keys", misses)
	}
	fleet := func(series string) int64 { return counter(t, entry.srv, "streammap_fleet_"+series) }
	if proxied, local, misses := fleet("proxied_total"), fleet("local_hits_total"), counter(t, entry.srv, "streammap_cache_misses_total"); proxied != 2 || local != 2 || misses != 0 {
		t.Errorf("entry node: %d proxied, %d local hits, %d compiles; want 2, 2, 0", proxied, local, misses)
	}
}

// TestFleetDrainingOwner: a draining owner still answers a forwarded
// compile for a key it holds, so the client gets the owner's bytes and no
// node compiles. A key it would have to compile it refuses with 503, and
// that refusal is never relayed: the proxying node falls back and compiles
// the key itself, answering a 200 with the bytes of a fresh compile.
func TestFleetDrainingOwner(t *testing.T) {
	nodes := startFleetNodes(t, 2, nil)
	graphs, opts := graphsOwnedBy(t, nodes, 0, 2)
	var bodies [2][]byte
	for i, g := range graphs {
		b, err := json.Marshal(server.NewRequest(g, opts))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	held, cold := bodies[0], bodies[1]
	owner, entry := nodes[0], nodes[1]
	fromOwner := postCompile(t, owner.url, held)
	owner.srv.SetDraining(true)

	if got := postCompile(t, entry.url, held); !bytes.Equal(got, fromOwner) {
		t.Error("a held key served through a draining owner is not the owner's bytes")
	}
	fleet := func(series string) int64 { return counter(t, entry.srv, "streammap_fleet_"+series) }
	if compiles := counter(t, owner.srv, "streammap_cache_misses_total") + counter(t, entry.srv, "streammap_cache_misses_total"); compiles != 1 || fleet("proxied_total") != 1 {
		t.Fatalf("held key: %d compiles fleet-wide and %d proxied, want the owner's first compile only and 1",
			compiles, fleet("proxied_total"))
	}

	if got := postCompile(t, entry.url, cold); !bytes.Equal(got, localCompile(t, cold)) {
		t.Error("a cold key's fallback answer is not the bytes of a fresh compile")
	}
	if fallbacks, misses := fleet("fallbacks_total"), counter(t, entry.srv, "streammap_cache_misses_total"); fallbacks != 1 || misses != 1 {
		t.Errorf("cold key: %d fallbacks, %d compiles on the entry node; want 1, 1", fallbacks, misses)
	}
	if misses := counter(t, owner.srv, "streammap_cache_misses_total"); misses != 1 {
		t.Errorf("the draining owner compiled (%d compiles)", misses)
	}
	if alive, opens := fleet("peers_alive"), fleet("breaker_opens_total"); alive != 2 || opens != 0 {
		t.Errorf("a draining owner was taken for a dead one: %d alive, %d opens", alive, opens)
	}
}

// TestFleetForwardedRequestsNeverHopAgain: a request already carrying the
// forwarded marker is served where it lands, even by a node that does not
// own the key — the one-hop guarantee that makes routing cycle-free.
func TestFleetForwardedRequestsNeverHopAgain(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	g, opts := graphOwnedBy(t, nodes, 0)
	body, err := json.Marshal(server.NewRequest(g, opts))
	if err != nil {
		t.Fatal(err)
	}

	// Node 1 does not own the key; a forwarded request must not travel on.
	hreq, err := http.NewRequest(http.MethodPost, nodes[1].url+"/v1/compile", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Streammap-Forwarded", "test")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request answered %d", resp.StatusCode)
	}
	srv := nodes[1].srv
	if misses := counter(t, srv, "streammap_cache_misses_total"); misses != 1 {
		t.Fatalf("forwarded request was not compiled locally: %d compiles", misses)
	}
	if proxied := counter(t, srv, "streammap_fleet_proxied_total"); proxied != 0 {
		t.Fatalf("forwarded request hopped again: %d proxied", proxied)
	}
	if requests := counter(t, nodes[0].srv, "streammap_http_requests_total", route("compile")); requests != 0 {
		t.Fatalf("owner saw %d requests for a forwarded-elsewhere key", requests)
	}
}

// TestFleetOwnerDownFallback: an unreachable owner's circuit opens, the
// ring marks it down, and the receiving node compiles the key itself —
// degraded, never unavailable — and the ring-churn counter reflects the
// lost node. BreakerFailures is pinned to 1 so a single failed request
// carries the whole transition; the default tolerance has its own test.
func TestFleetOwnerDownFallback(t *testing.T) {
	nodes := startFleetNodes(t, 3, func(_ int, cfg *server.Config) {
		cfg.Fleet.BreakerFailures = 1 // first transport failure opens the circuit
		cfg.Fleet.PeerRetries = -1    // no retry budget: one attempt, one verdict
	})
	g, opts := graphOwnedBy(t, nodes, 0)
	nodes[0].ts.Close()

	if _, err := postJSON(context.Background(), nodes[1].url+"/v1/compile", server.NewRequest(g, opts)); err != nil {
		t.Fatalf("request failed with one node down: %v", err)
	}
	fleet := func(series string) int64 { return counter(t, nodes[1].srv, "streammap_fleet_"+series) }
	if fallbacks, misses := fleet("fallbacks_total"), counter(t, nodes[1].srv, "streammap_cache_misses_total"); fallbacks != 1 || misses != 1 {
		t.Fatalf("expected local-compile fallback: %d fallbacks, %d compiles", fallbacks, misses)
	}
	if alive := fleet("peers_alive"); alive != 2 {
		t.Fatalf("dead owner still in the alive set: %d alive", alive)
	}
	if opens, retries := fleet("breaker_opens_total"), fleet("peer_retries_total"); opens != 1 || retries != 0 {
		t.Fatalf("breaker counters wrong: %d opens, %d retries", opens, retries)
	}
	// About a third of a 3-node keyspace changed owners.
	if moves := fleet("ring_moves_permille"); moves < 200 || moves > 500 {
		t.Fatalf("ring moves %d outside ~1/3 keyspace for one lost node of three", moves)
	}
}

// TestFleetColdNodesAgreeOnBytes: a key determines its bytes. With no
// shared store and no cache directory, the key's owner and — once the owner
// is gone — the node that falls back to compiling it itself each run the
// pipeline cold, at different worker counts, and answer with the same
// bytes: a client cannot tell which node compiled.
func TestFleetColdNodesAgreeOnBytes(t *testing.T) {
	nodes := startFleetNodes(t, 2, func(i int, cfg *server.Config) {
		cfg.CompileWorkers = 1 + 7*i
		cfg.Fleet.BreakerFailures = 1
		cfg.Fleet.PeerRetries = -1
	})
	g, opts := graphOwnedBy(t, nodes, 0)
	body, err := json.Marshal(server.NewRequest(g, opts))
	if err != nil {
		t.Fatal(err)
	}
	fromOwner := postCompile(t, nodes[0].url, body)
	nodes[0].ts.Close()
	fromSurvivor := postCompile(t, nodes[1].url, body)
	for i, n := range nodes {
		if misses := counter(t, n.srv, "streammap_cache_misses_total"); misses != 1 {
			t.Fatalf("node %d ran %d compiles, want its own cold one", i, misses)
		}
	}
	if !bytes.Equal(fromOwner, fromSurvivor) {
		t.Errorf("two cold nodes answered one key with different bytes (%d vs %d)", len(fromOwner), len(fromSurvivor))
	}
}

// TestFleetBreakerAbsorbsFailures: with the default tolerance, early
// transport failures retry and fall back locally WITHOUT marking the
// owner down — only the configured consecutive-failure count opens the
// circuit and rebuilds the ring, and an open circuit skips peer I/O
// entirely.
func TestFleetBreakerAbsorbsFailures(t *testing.T) {
	nodes := startFleetNodes(t, 3, func(_ int, cfg *server.Config) {
		cfg.Fleet.BreakerFailures = 3
		cfg.Fleet.PeerRetries = -1
		cfg.Fleet.RetryBackoff = time.Millisecond
	})
	// Four distinct keys all owned by node 0, so every request below
	// exercises the dead owner's circuit.
	graphs, opts := graphsOwnedBy(t, nodes, 0, 4)
	nodes[0].ts.Close()
	ctx := context.Background()

	// Two failures: tolerated. The owner stays in the ring — one flaky
	// moment must not churn a third of the keyspace.
	for i := 0; i < 2; i++ {
		if _, err := postJSON(ctx, nodes[1].url+"/v1/compile", server.NewRequest(graphs[i], opts)); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	fleet := func(series string) int64 { return counter(t, nodes[1].srv, "streammap_fleet_"+series) }
	if fallbacks, alive, opens, moves := fleet("fallbacks_total"), fleet("peers_alive"), fleet("breaker_opens_total"), fleet("ring_moves_permille"); fallbacks != 2 || alive != 3 || opens != 0 || moves != 0 {
		t.Fatalf("breaker tripped early: %d fallbacks, %d alive, %d opens, %d ring moves", fallbacks, alive, opens, moves)
	}

	// Third consecutive failure opens the circuit and marks the peer down.
	if _, err := postJSON(ctx, nodes[1].url+"/v1/compile", server.NewRequest(graphs[2], opts)); err != nil {
		t.Fatal(err)
	}
	if opens, alive := fleet("breaker_opens_total"), fleet("peers_alive"); opens != 1 || alive != 2 {
		t.Fatalf("third failure did not open the circuit: %d opens, %d alive", opens, alive)
	}

	// With the circuit open and the dead node out of the ring, its old key
	// routes to a live owner — but a key that WOULD have routed to it no
	// longer burns a dial. Re-request graphs[3] against the rebuilt ring:
	// wherever it lands, no new breaker transition may occur, and any
	// residual routing to the dead owner must be a skip, not an attempt.
	if _, err := postJSON(ctx, nodes[1].url+"/v1/compile", server.NewRequest(graphs[3], opts)); err != nil {
		t.Fatal(err)
	}
	if opens := fleet("breaker_opens_total"); opens != 1 {
		t.Fatalf("extra breaker transition after open: %d opens", opens)
	}
}

// TestFleetHealthzPeers: /healthz carries per-peer reachability; a lost
// or draining peer degrades the status while this node keeps answering
// 200 — only draining itself is a 503.
func TestFleetHealthzPeers(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	readHealth := func(url string) (int, server.Health) {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h server.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	code, h := readHealth(nodes[0].url)
	if code != http.StatusOK || h.Status != "ok" || len(h.Peers) != 2 {
		t.Fatalf("healthy fleet reported %d %+v", code, h)
	}
	for _, p := range h.Peers {
		if p.State != "ok" {
			t.Fatalf("healthy peer reported %+v", p)
		}
	}

	// A draining peer: still serving, so this node is merely degraded.
	nodes[1].srv.SetDraining(true)
	code, h = readHealth(nodes[0].url)
	if code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("draining peer should degrade, got %d %+v", code, h)
	}
	states := map[string]string{}
	for _, p := range h.Peers {
		states[p.URL] = p.State
	}
	if states[nodes[1].url] != "draining" || states[nodes[2].url] != "ok" {
		t.Fatalf("peer states wrong: %v", states)
	}

	// A dead peer reads as unreachable; the draining node itself says 503.
	nodes[2].ts.Close()
	code, h = readHealth(nodes[0].url)
	if code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("lost peer should degrade, got %d %+v", code, h)
	}
	for _, p := range h.Peers {
		if p.URL == nodes[2].url && p.State != "unreachable" {
			t.Fatalf("dead peer reported %+v", p)
		}
	}
	if code, h = readHealth(nodes[1].url); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining node reported %d %+v", code, h)
	}
}

// TestFleetSeriesAbsentSingleNode: without fleet config the exposition has
// no streammap_fleet_* series — single-node deployments are unchanged —
// in process and over the wire.
func TestFleetSeriesAbsentSingleNode(t *testing.T) {
	srv, base := startServer(t, server.Config{})
	scraped, err := scrape(base)
	if err != nil {
		t.Fatal(err)
	}
	for how, m := range map[string]obs.Samples{"Metrics()": srv.Metrics(), "GET /metrics": scraped} {
		for series := range m {
			if strings.HasPrefix(series, "streammap_fleet_") {
				t.Errorf("single-node %s grew a fleet series: %s", how, series)
			}
		}
	}
}

// TestFleetPeerBodiesNeedTheirHash: a peer's artifact body is accepted on
// its content-hash header alone, so the header is mandatory. An owner that
// answers the proxied compile with well-formed artifact bytes but a wrong
// or absent hash is healthy (no breaker trip, not marked down) and not
// believed: the bad body is counted as peerBadBytes and the request is
// compiled locally instead.
func TestFleetPeerBodiesNeedTheirHash(t *testing.T) {
	for name, stamp := range map[string]func(h http.Header){
		"absent": func(http.Header) {},
		"wrong":  func(h http.Header) { h.Set("X-Streammap-Content-Hash", strings.Repeat("0", 64)) },
	} {
		t.Run(name, func(t *testing.T) {
			// A real artifact for the stub owner to serve: only its hash
			// header is at fault.
			g0 := appGraph(t, "DES", 4)
			c, err := driver.Compile(context.Background(), g0, testOpts(2))
			if err != nil {
				t.Fatal(err)
			}
			a, err := c.Artifact()
			if err != nil {
				t.Fatal(err)
			}
			wellFormed, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			var proxies atomic.Int64
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/compile" {
					http.NotFound(w, r)
					return
				}
				proxies.Add(1)
				stamp(w.Header())
				w.Header().Set("Content-Type", "application/json")
				w.Write(wellFormed)
			}))
			t.Cleanup(owner.Close)

			ts := httptest.NewUnstartedServer(nil)
			self := "http://" + ts.Listener.Addr().String()
			srv := server.New(server.Config{Fleet: fleet.Config{
				SelfURL: self, Peers: []string{self, owner.URL}, DownCooldown: time.Hour}})
			ts.Config.Handler = srv.Handler()
			ts.Start()
			t.Cleanup(func() { stopServer(t, srv, ts) })

			nodes := []*fleetNode{{url: self}, {url: owner.URL}}
			g, opts := graphOwnedBy(t, nodes, 1)
			served, err := postJSON(context.Background(), self+"/v1/compile", server.NewRequest(g, opts))
			if err != nil {
				t.Fatal(err)
			}
			if served.Fingerprint != g.Fingerprint() {
				t.Fatal("the unverified peer body reached the client")
			}
			fleet := func(series string) int64 { return counter(t, srv, "streammap_fleet_"+series) }
			if bad := fleet("peer_bad_bytes_total"); proxies.Load() != 1 || bad != 1 {
				t.Fatalf("owner saw %d proxies, node counted %d bad bodies; want 1 / 1", proxies.Load(), bad)
			}
			if fallbacks, misses, proxied := fleet("fallbacks_total"), counter(t, srv, "streammap_cache_misses_total"), fleet("proxied_total"); fallbacks != 1 || misses != 1 || proxied != 0 {
				t.Fatalf("expected a local-compile fallback: %d fallbacks, %d compiles, %d proxied", fallbacks, misses, proxied)
			}
			if alive, opens := fleet("peers_alive"), fleet("breaker_opens_total"); alive != 2 || opens != 0 {
				t.Fatalf("an integrity failure was treated as a liveness failure: %d alive, %d opens", alive, opens)
			}
		})
	}
}

// TestArtifactResponsesDeclareLength: every route that answers with an
// artifact has the whole body in hand and says how long it is — compile
// (postCompile checks it wherever it is used), remap, the owner's answer
// to a forwarded compile, and the proxied relay of it.
func TestArtifactResponsesDeclareLength(t *testing.T) {
	nodes := startFleetNodes(t, 2, nil)
	g, opts := graphOwnedBy(t, nodes, 0)
	body, err := json.Marshal(server.NewRequest(g, opts))
	if err != nil {
		t.Fatal(err)
	}
	declared := func(what string, resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: status %d, Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				what, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		return got
	}

	// Cold key at the non-owner: the answer is a relay of the owner's.
	relayed := postCompile(t, nodes[1].url, body)
	if proxied := counter(t, nodes[1].srv, "streammap_fleet_proxied_total"); proxied != 1 {
		t.Fatalf("expected a proxied relay: %d proxied", proxied)
	}
	freq, err := http.NewRequest(http.MethodPost, nodes[0].url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	freq.Header.Set("Content-Type", "application/json")
	freq.Header.Set("X-Streammap-Forwarded", "test")
	resp, err := http.DefaultClient.Do(freq)
	if forwarded := declared("forwarded compile", resp, err); !bytes.Equal(forwarded, relayed) {
		t.Error("the owner's forwarded answer and the relay disagree on the bytes")
	}

	a, err := artifact.Decode(relayed)
	if err != nil {
		t.Fatal(err)
	}
	rreq, err := server.NewRemapRequest(a, topology.Degradation{RemoveGPUs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	rbody, err := json.Marshal(rreq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(nodes[0].url+"/v1/remap", "application/json", bytes.NewReader(rbody))
	declared("remap", resp, err)
}
