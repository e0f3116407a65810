package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	"streammap/internal/server/client"
	"streammap/internal/topology"
)

// fleetNode is one in-process fleet member.
type fleetNode struct {
	srv *server.Server
	ts  *httptest.Server
	url string
	cl  *client.Client
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
		tss[i].Config.Handler = srv.Handler()
		tss[i].Start()
		t.Cleanup(func() { stopServer(t, srv, tss[i]) })
		nodes[i] = &fleetNode{srv: srv, ts: tss[i], url: urls[i], cl: client.New(urls[i])}
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

// graphOwnedBy scans graph sizes until one's key lands on nodes[want],
// so tests can aim a request at a chosen owner deterministically.
func graphOwnedBy(t *testing.T, nodes []*fleetNode, want int) (*sdf.Graph, driver.Options) {
	t.Helper()
	opts := testOpts(2)
	ring := fleetRing(t, nodes)
	for size := 2; size <= 64; size++ {
		g := appGraph(t, "DES", size)
		if ring.Owner(keyHashOf(t, g, opts)) == nodes[want].url {
			return g, opts
		}
	}
	t.Fatal("no graph size in [2,64] hashed to the wanted owner")
	return nil, opts
}

// TestFleetPeerArtifactFetch: a key compiled on its owner is served to a
// request arriving at any other node via peer artifact fetch — no
// pipeline stage runs on the non-owner, and the fetched copy makes the
// key a local hit from then on.
func TestFleetPeerArtifactFetch(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	g, opts := graphOwnedBy(t, nodes, 0)
	ctx := context.Background()
	req := server.NewRequest(g, opts)

	want, err := nodes[0].cl.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if misses, proxied := counter(t, nodes[0].srv, "streammap_cache_misses_total"), counter(t, nodes[0].srv, "streammap_fleet_proxied_total"); misses != 1 || proxied != 0 {
		t.Fatalf("owner should compile its own key locally: %d compiles, %d proxied", misses, proxied)
	}

	got, err := nodes[1].cl.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.EquivalentArtifacts(want, got); err != nil {
		t.Fatalf("peer-fetched artifact differs from owner's: %v", err)
	}
	if hits, proxied := counter(t, nodes[1].srv, "streammap_fleet_peer_hits_total"), counter(t, nodes[1].srv, "streammap_fleet_proxied_total"); hits != 1 || proxied != 0 {
		t.Fatalf("expected one peer hit, no proxy: %d peer hits, %d proxied", hits, proxied)
	}
	if misses := counter(t, nodes[1].srv, "streammap_cache_misses_total"); misses != 0 {
		t.Fatalf("non-owner ran the pipeline (%d misses) for a fleet-cached key", misses)
	}

	// The fetched copy replicated the key: next time it's a local answer.
	if _, err := nodes[1].cl.Compile(ctx, req); err != nil {
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

	if _, err := nodes[2].cl.Compile(ctx, req); err != nil {
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
	if _, err := nodes[2].cl.Compile(ctx, req); err != nil {
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
	if proxied, redirects, hits := counter(t, srv, "streammap_fleet_proxied_total"), counter(t, srv, "streammap_fleet_redirects_total"),
		counter(t, srv, "streammap_fleet_peer_hits_total"); proxied != 0 || redirects != 0 || hits != 0 {
		t.Fatalf("forwarded request hopped again: %d proxied, %d redirects, %d peer hits", proxied, redirects, hits)
	}
	if requests := counter(t, nodes[0].srv, "streammap_http_requests_total", route("compile")); requests != 0 {
		t.Fatalf("owner saw %d requests for a forwarded-elsewhere key", requests)
	}
}

// TestFleetRedirectMode: with Redirect on, a non-owner answers 307
// naming the owner's compile route, and a client with FollowRedirect
// lands there end to end.
func TestFleetRedirectMode(t *testing.T) {
	nodes := startFleetNodes(t, 3, func(_ int, cfg *server.Config) { cfg.Fleet.Redirect = true })
	g, opts := graphOwnedBy(t, nodes, 1)
	req := server.NewRequest(g, opts)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	// Raw request, redirects unfollowed: inspect the 307 itself.
	hreq, err := http.NewRequest(http.MethodPost, nodes[0].url+"/v1/compile", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect-mode non-owner answered %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != nodes[1].url+"/v1/compile" {
		t.Fatalf("Location %q does not name the owner %q", loc, nodes[1].url)
	}
	if redirects := counter(t, nodes[0].srv, "streammap_fleet_redirects_total"); redirects != 1 {
		t.Fatalf("redirect not counted: %d redirects", redirects)
	}

	// The opt-in client follows the hop and gets the artifact.
	cl := client.New(nodes[0].url)
	cl.Config.FollowRedirect = true
	if _, err := cl.Compile(context.Background(), req); err != nil {
		t.Fatalf("redirect-following client failed: %v", err)
	}
	if misses := counter(t, nodes[1].srv, "streammap_cache_misses_total"); misses != 1 {
		t.Fatalf("owner did not serve the redirected compile: %d compiles", misses)
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

	if _, err := nodes[1].cl.Compile(context.Background(), server.NewRequest(g, opts)); err != nil {
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
	ring, opts := fleetRing(t, nodes), testOpts(2)
	var graphs []*sdf.Graph
	for size := 2; size <= 128 && len(graphs) < 4; size++ {
		g := appGraph(t, "DES", size)
		if ring.Owner(keyHashOf(t, g, opts)) == nodes[0].url {
			graphs = append(graphs, g)
		}
	}
	if len(graphs) < 4 {
		t.Fatalf("only %d keys owned by node 0 in sizes [2,128]", len(graphs))
	}
	nodes[0].ts.Close()
	ctx := context.Background()

	// Two failures: tolerated. The owner stays in the ring — one flaky
	// moment must not churn a third of the keyspace.
	for i := 0; i < 2; i++ {
		if _, err := nodes[1].cl.Compile(ctx, server.NewRequest(graphs[i], opts)); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	fleet := func(series string) int64 { return counter(t, nodes[1].srv, "streammap_fleet_"+series) }
	if fallbacks, alive, opens, moves := fleet("fallbacks_total"), fleet("peers_alive"), fleet("breaker_opens_total"), fleet("ring_moves_permille"); fallbacks != 2 || alive != 3 || opens != 0 || moves != 0 {
		t.Fatalf("breaker tripped early: %d fallbacks, %d alive, %d opens, %d ring moves", fallbacks, alive, opens, moves)
	}

	// Third consecutive failure opens the circuit and marks the peer down.
	if _, err := nodes[1].cl.Compile(ctx, server.NewRequest(graphs[2], opts)); err != nil {
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
	if _, err := nodes[1].cl.Compile(ctx, server.NewRequest(graphs[3], opts)); err != nil {
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

// TestFleetArtifactEndpoint: the peer-fetch route serves verifiable raw
// artifact bytes for cached keys and 404 for everything else.
func TestFleetArtifactEndpoint(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	g, opts := graphOwnedBy(t, nodes, 0)
	if _, err := nodes[0].cl.Compile(context.Background(), server.NewRequest(g, opts)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(nodes[0].url + "/v1/artifact/" + keyHashOf(t, g, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached artifact answered %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	if got := resp.Header.Get("X-Streammap-Content-Hash"); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("content hash header %q does not match body", got)
	}
	if _, err := artifact.Decode(body); err != nil {
		t.Fatalf("artifact endpoint served undecodable bytes: %v", err)
	}

	resp2, err := http.Get(nodes[0].url + "/v1/artifact/feedfeedfeedfeedfeedfeedfeedfeed")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key answered %d, want 404", resp2.StatusCode)
	}
}

// TestFleetSeriesAbsentSingleNode: without fleet config the exposition has
// no streammap_fleet_* series — single-node deployments are unchanged —
// in process and over the wire.
func TestFleetSeriesAbsentSingleNode(t *testing.T) {
	srv, cl := startServer(t, server.Config{})
	scraped, err := cl.Metrics(context.Background())
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
// answers the fetch and the proxied compile with well-formed artifact bytes
// but a wrong or absent hash is healthy (no breaker trip, not marked down)
// and not believed: each bad body is counted as peerBadBytes and the
// request is compiled locally instead.
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
			var fetches, proxies atomic.Int64
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case strings.HasPrefix(r.URL.Path, "/v1/artifact/"):
					fetches.Add(1)
				case r.URL.Path == "/v1/compile":
					proxies.Add(1)
				default:
					http.NotFound(w, r)
					return
				}
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
			served, err := client.New(self).Compile(context.Background(), server.NewRequest(g, opts))
			if err != nil {
				t.Fatal(err)
			}
			if served.Fingerprint != g.Fingerprint() {
				t.Fatal("the unverified peer body reached the client")
			}
			fleet := func(series string) int64 { return counter(t, srv, "streammap_fleet_"+series) }
			if bad := fleet("peer_bad_bytes_total"); fetches.Load() != 1 || proxies.Load() != 1 || bad != 2 {
				t.Fatalf("owner saw %d fetches / %d proxies, node counted %d bad bodies; want 1 / 1 / 2",
					fetches.Load(), proxies.Load(), bad)
			}
			if fallbacks, misses, hits, proxied := fleet("fallbacks_total"), counter(t, srv, "streammap_cache_misses_total"), fleet("peer_hits_total"), fleet("proxied_total"); fallbacks != 1 || misses != 1 || hits != 0 || proxied != 0 {
				t.Fatalf("expected a local-compile fallback: %d fallbacks, %d compiles, %d peer hits, %d proxied", fallbacks, misses, hits, proxied)
			}
			if alive, opens := fleet("peers_alive"), fleet("breaker_opens_total"); alive != 2 || opens != 0 {
				t.Fatalf("an integrity failure was treated as a liveness failure: %d alive, %d opens", alive, opens)
			}
		})
	}
}

// TestArtifactResponsesDeclareLength: every route that answers with an
// artifact has the whole body in hand and says how long it is — compile
// (postCompile checks it wherever it is used), remap, the peer-fetch
// route, and a proxied relay.
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
	resp, err := http.Get(nodes[0].url + "/v1/artifact/" + keyHashOf(t, g, opts))
	if fetched := declared("artifact route", resp, err); !bytes.Equal(fetched, relayed) {
		t.Error("the peer-fetch route and the relay disagree on the bytes")
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
