package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streammap/internal/apps"
	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/fleet"
	"streammap/internal/mapping"
	"streammap/internal/obs"
	"streammap/internal/sdf"
	"streammap/internal/server"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// startServer starts one server on a loopback listener and returns it
// with its base URL.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { stopServer(t, srv, ts) })
	return srv, ts.URL
}

// wireError is a non-200 answer: its status, its Retry-After header and
// its message.
type wireError struct {
	status     int
	retryAfter string
	msg        string
}

func (e *wireError) Error() string {
	return fmt.Sprintf("server answered %d (Retry-After %q): %s", e.status, e.retryAfter, e.msg)
}

// postJSON posts req as JSON to url and decodes a 200 answer as the
// artifact it is; any other answer is a *wireError.
func postJSON(ctx context.Context, url string, req any) (*artifact.Artifact, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &wireError{resp.StatusCode, resp.Header.Get("Retry-After"), string(bytes.TrimSpace(body))}
	}
	return artifact.Decode(body)
}

// scrape reads baseURL's /metrics exposition through obs.ParseText.
func scrape(baseURL string) (obs.Samples, error) {
	status, body, err := get(baseURL + "/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics answered %d %q: %v", status, body, err)
	}
	return obs.ParseText(body)
}

// get is one GET: the status and body as served.
func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stopServer shuts one test server down the way streammapd does: stop
// the listener, then wait for the service's background work, so nothing
// is still writing a cache directory when the test (or its TempDir
// cleanup) moves on. Safe to call twice.
func stopServer(t *testing.T, srv *server.Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	closeNow(t, srv)
}

// closeNow is stopServer for a server that has no listener (any more).
func closeNow(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Errorf("server close: %v", err)
	}
}

// counter reads one series of srv's exposition (see Server.Metrics) as the
// integer it is; a series that is not there fails the test. Response-side
// series — streammap_http_responses_total, streammap_request_duration_seconds
// — are recorded after the handler has written its response, so read those
// only once the handlers have returned (stopServer, or a request driven
// through srv.Handler() directly).
func counter(t *testing.T, srv *server.Server, name string, labels ...obs.Label) int64 {
	t.Helper()
	v, ok := srv.Metrics().Get(name, labels...)
	if !ok {
		t.Fatalf("%s%v absent from the exposition", name, labels)
	}
	return int64(v)
}

func route(v string) obs.Label { return obs.Label{Key: "route", Value: v} }
func tier(v string) obs.Label  { return obs.Label{Key: "tier", Value: v} }

// postCompile posts one marshalled compile request and returns the raw
// response body, holding the response to the artifact-route contract: 200,
// JSON, and a declared Content-Length (the body is a known []byte; chunked
// encoding would mean the server forgot it).
func postCompile(t *testing.T, baseURL string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile answered %d: %s", resp.StatusCode, got)
	}
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("compile response: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			resp.ContentLength, resp.TransferEncoding, len(got))
	}
	return got
}

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

func testOpts(gpus int) driver.Options {
	return driver.Options{
		Topo:       topology.PairedTree(gpus),
		MapOptions: mapping.Options{ILPMaxParts: 8},
	}
}

// TestWireGoldenRoundTrip is the wire-format contract: an artifact that
// travelled client -> server -> artifact.Decode must encode to the bytes a
// local compile's artifact does — over the paper apps and a handful of
// synthetic scenarios.
func TestWireGoldenRoundTrip(t *testing.T) {
	_, base := startServer(t, server.Config{})
	ctx := context.Background()

	type instance struct {
		name string
		g    *sdf.Graph
		opts driver.Options
	}
	var cases []instance
	for _, tc := range []struct {
		name string
		n    int
		gpus int
	}{
		{"DES", 4, 2},
		{"FMRadio", 4, 4},
		{"FFT", 16, 2},
		{"DCT", 6, 4},
		{"MatMul2", 3, 2},
		{"BitonicRec", 8, 4},
	} {
		cases = append(cases, instance{tc.name, appGraph(t, tc.name, tc.n), testOpts(tc.gpus)})
	}
	corpus, err := synth.Corpus(synth.CorpusParams{Seed: 0xD00D, Scenarios: 6, MaxFilters: 14})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range corpus {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{sc.Name, g, sc.Opts})
	}

	for _, tc := range cases {
		served, err := postJSON(ctx, base+"/v1/compile", server.NewRequest(tc.g, tc.opts))
		if err != nil {
			t.Fatalf("%s: served compile: %v", tc.name, err)
		}
		c, err := driver.Compile(ctx, tc.g, tc.opts)
		if err != nil {
			t.Fatalf("%s: local compile: %v", tc.name, err)
		}
		local, err := c.Artifact()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := driver.EquivalentArtifacts(local, served); err != nil {
			t.Errorf("%s: served artifact differs from local compile: %v", tc.name, err)
		}
	}
}

// TestServerCoalescesThunderingHerd: a burst of identical requests under a
// tiny admission budget must all succeed — joiners ride the leader's
// flight without consuming slots or queue space — and the pipeline must
// run exactly once.
func TestServerCoalescesThunderingHerd(t *testing.T) {
	srv, base := startServer(t, server.Config{Service: core.ServiceConfig{MaxConcurrent: 1, MaxQueue: 1}})
	g := appGraph(t, "DES", 8)
	req := server.NewRequest(g, testOpts(2))

	const N = 32
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = postJSON(context.Background(), base+"/v1/compile", req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("identical request %d failed: %v", i, err)
		}
	}
	if misses := counter(t, srv, "streammap_cache_misses_total"); misses != 1 {
		t.Errorf("%d pipeline compiles ran for one graph, want 1", misses)
	}
	if rejected := counter(t, srv, "streammap_rejected_total"); rejected != 0 {
		t.Errorf("%d identical requests were throttled; the herd must coalesce, not trip backpressure", rejected)
	}
	// Every other request was answered from the table: it joined the run in
	// flight (coalesced) or arrived after it finished, and both are hits.
	hits, coalesced := counter(t, srv, "streammap_cache_hits_total", tier("memory")), counter(t, srv, "streammap_coalesced_total")
	if hits != N-1 || coalesced > hits {
		t.Errorf("table hits %d (coalesced %d), want %d joiners accounted for", hits, coalesced, N-1)
	}
}

// TestServerShedsLoadWith429: distinct requests beyond MaxConcurrent +
// MaxQueue are rejected with 429 and a Retry-After hint rather than piling
// up, and the survivors still compile correctly. A 429 is latency the client
// observed (its admission wait), so the shed requests are in the latency
// record too: it holds every request received, not just the ones served.
func TestServerShedsLoadWith429(t *testing.T) {
	srv := server.New(server.Config{Service: core.ServiceConfig{MaxConcurrent: 1, MaxQueue: 1}, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { stopServer(t, srv, ts) })
	base := ts.URL
	corpus, err := synth.Corpus(synth.CorpusParams{Seed: 7, Scenarios: 12, MaxFilters: 20})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]server.CompileRequest, len(corpus))
	for i, sc := range corpus {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = server.NewRequest(g, sc.Opts)
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		ok        int
		throttled int
		retry     string
	)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := postJSON(context.Background(), base+"/v1/compile", reqs[i])
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				ok++
				return
			}
			var we *wireError
			if !errors.As(err, &we) || we.status != http.StatusTooManyRequests {
				t.Errorf("request %d: %v, want success or 429", i, err)
				return
			}
			throttled++
			retry = we.retryAfter
		}(i)
	}
	wg.Wait()
	if throttled == 0 {
		t.Fatalf("no request was throttled (%d ok) with MaxConcurrent=1 MaxQueue=1 and %d distinct concurrent requests", ok, len(reqs))
	}
	if ok == 0 {
		t.Fatal("every request was throttled; admission must still serve the slot holder")
	}
	if retry != "3" {
		t.Errorf("Retry-After hint %q, want the configured 3s", retry)
	}
	if rejected := counter(t, srv, "streammap_rejected_total"); rejected != int64(throttled) {
		t.Errorf("the server counted %d rejected, clients saw %d", rejected, throttled)
	}
	stopServer(t, srv, ts) // the latency record is written after the response
	requests := counter(t, srv, "streammap_http_requests_total", route("compile"))
	if timed := counter(t, srv, "streammap_request_duration_seconds_count", route("compile")); timed != requests {
		t.Errorf("latency record holds %d samples for %d requests; 429s must be recorded too", timed, requests)
	}
}

// TestServerAdmissionIsTheServices: the node's admission bound is its
// service's MaxConcurrent and MaxQueue, as configured, and its series are
// on /metrics even when the caller handed the service a registry of its
// own. Two held runs fill the one slot and the one queue place, so a
// compile beyond them is shed with 429 at once, without compiling.
func TestServerAdmissionIsTheServices(t *testing.T) {
	srv, base := startServer(t, server.Config{Service: core.ServiceConfig{
		MaxConcurrent: 1, MaxQueue: 1, Metrics: obs.NewRegistry()}})
	svc := srv.Service()
	held, release := make(chan struct{}, 2), make(chan struct{})
	var wg sync.WaitGroup
	hold := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Flight(context.Background(), key, func(context.Context) ([]byte, error) {
				held <- struct{}{}
				<-release
				return nil, nil
			})
		}()
	}
	defer wg.Wait()
	defer close(release)
	hold("hold/running")
	<-held
	hold("hold/queued")
	for st := svc.Stats(); st.InFlight+st.Queued < 2; st = svc.Stats() {
		runtime.Gosched()
	}
	if inFlight, queued := counter(t, srv, "streammap_in_flight"), counter(t, srv, "streammap_queued"); inFlight != 1 || queued != 1 {
		t.Fatalf("/metrics shows %d in flight and %d queued, want the configured 1 and 1", inFlight, queued)
	}

	_, err := postJSON(context.Background(), base+"/v1/compile", server.NewRequest(appGraph(t, "DES", 8), testOpts(2)))
	var we *wireError
	if !errors.As(err, &we) || we.status != http.StatusTooManyRequests {
		t.Fatalf("a compile beyond one slot and one queue place got %v, want 429", err)
	}
	if misses := counter(t, srv, "streammap_cache_misses_total"); misses != 0 {
		t.Errorf("a shed request compiled (%d misses)", misses)
	}
}

// TestServerDiskTierAcrossRestart is the byte-identity referee of the
// serving path: for one key, the fresh response, a table hit, a disk-tier
// hit after a restart, a shared-store hit on a second node and a proxy to
// the owner through a fleet are the same bytes — the one encoding the one
// fresh compile produced. The tier counters, not missing provenance, say
// that no pipeline ran: exactly one compile and one encode happen over
// the whole test.
func TestServerDiskTierAcrossRestart(t *testing.T) {
	dir, storeDir := t.TempDir(), t.TempDir()
	// The fleet comes up first so the key can be chosen by owner: node 0
	// owns it and shares the restarted server's cache directory.
	nodes := startFleetNodes(t, 2, func(i int, cfg *server.Config) {
		if i == 0 {
			cfg.Service.CacheDir = dir
		}
	})
	g, opts := graphOwnedBy(t, nodes, 0)
	body, err := json.Marshal(server.NewRequest(g, opts))
	if err != nil {
		t.Fatal(err)
	}
	var all []*server.Server

	first := server.New(server.Config{Service: core.ServiceConfig{CacheDir: dir, Shared: fleet.NewDirStore(storeDir)}})
	ts := httptest.NewServer(first.Handler())
	all = append(all, first)
	fresh := postCompile(t, ts.URL, body)
	if _, err := artifact.Decode(fresh); err != nil {
		t.Fatalf("fresh response does not decode: %v", err)
	}
	answers := map[string][]byte{"table hit": postCompile(t, ts.URL, body)}
	// The restart: Close is the barrier that puts the artifact on disk.
	stopServer(t, first, ts)
	// The bytes do not say which answer ran the pipeline; the traces do.
	// Newest first: the table hit, then the fresh compile.
	recent := handlerTraces(t, first).Recent
	if len(recent) != 2 {
		t.Fatalf("first server retained %d traces for two requests", len(recent))
	}
	for i, wantStages := range []bool{false, true} {
		if got := stageSpans(recent[i])["stage.partition"] == 1; got != wantStages {
			t.Errorf("trace %d (newest first) has a stage.partition span: %v, want %v (spans: %v)",
				i, got, wantStages, spanNames(recent[i]))
		}
	}

	restarted, base := startServer(t, server.Config{Service: core.ServiceConfig{CacheDir: dir}})
	all = append(all, restarted)
	answers["disk hit after restart"] = postCompile(t, base, body)
	if hits, misses := counter(t, restarted, "streammap_cache_hits_total", tier("disk")), counter(t, restarted, "streammap_cache_misses_total"); hits != 1 || misses != 0 {
		t.Errorf("restarted server: %d disk hits / %d compiles, want 1 / 0", hits, misses)
	}

	second, base := startServer(t, server.Config{Service: core.ServiceConfig{
		CacheDir: t.TempDir(), Shared: fleet.NewDirStore(storeDir)}})
	all = append(all, second)
	answers["store hit on a second node"] = postCompile(t, base, body)
	if hits, misses := counter(t, second, "streammap_cache_hits_total", tier("store")), counter(t, second, "streammap_cache_misses_total"); hits != 1 || misses != 0 {
		t.Errorf("second node: %d store hits / %d compiles, want 1 / 0", hits, misses)
	}

	answers["proxy to the owner"] = postCompile(t, nodes[1].url, body)
	if proxied := counter(t, nodes[1].srv, "streammap_fleet_proxied_total"); proxied != 1 {
		t.Errorf("non-owner counted %d proxied requests, want 1", proxied)
	}
	all = append(all, nodes[0].srv, nodes[1].srv)

	for how, got := range answers {
		if !bytes.Equal(got, fresh) {
			t.Errorf("%s: %d bytes differ from the fresh response's %d", how, len(got), len(fresh))
		}
	}
	var compiles, encodes int64
	for _, srv := range all {
		compiles += counter(t, srv, "streammap_cache_misses_total")
		encodes += counter(t, srv, "streammap_artifact_encodes_total")
	}
	if compiles != 1 || encodes != 1 {
		t.Errorf("%d compiles and %d encodes across five ways to be answered, want 1 and 1", compiles, encodes)
	}
}

// TestServerRejectsBadRequests: malformed payloads answer 400 with a
// diagnostic, not 500, and never reach the pipeline.
func TestServerRejectsBadRequests(t *testing.T) {
	srv, base := startServer(t, server.Config{})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON answered %d, want 400", resp.StatusCode)
	}
	// Zero options select the defaults, so the graph is what is refused.
	resp := post(`{"graph":{"name":"empty"},"options":{}}`)
	if msg, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(string(msg), "importing graph") {
		t.Errorf("empty graph answered %d %q (%v), want 400 importing graph", resp.StatusCode, msg, err)
	}
	g := appGraph(t, "DES", 8)
	req := server.NewRequest(g, testOpts(2))
	req.Options.Mapper = "nope"
	payload, _ := json.Marshal(req)
	if resp := post(string(payload)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mapper answered %d, want 400", resp.StatusCode)
	}
	if misses := counter(t, srv, "streammap_cache_misses_total"); misses != 0 {
		t.Errorf("a bad request reached the pipeline: %d compiles", misses)
	}
	// GET on a POST route is a routing error, not a server error.
	resp, err := http.Get(base + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile answered %d, want 405", resp.StatusCode)
	}
}

// TestServerCompilesZeroSharedMemoryGraph: a zero-copy source feeding a
// sink — expressible on the wire — needs no shared memory, which once
// divided by zero inside the partitioner's workers and took the process
// with it. The daemon must answer it with an artifact and stay up.
func TestServerCompilesZeroSharedMemoryGraph(t *testing.T) {
	_, base := startServer(t, server.Config{})
	src := sdf.NewSource("ZeroCopySource", 4, 4, nil)
	src.ZeroCopy = true
	g, err := sdf.Flatten("zero-sm", sdf.Pipe("p", sdf.F(src), sdf.F(sdf.NewSink("Sink", 4, 4, nil))))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.NewRequest(g, testOpts(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"zeroCopy":true`)) {
		t.Fatalf("request does not carry the zero-copy flag: %s", body)
	}
	a, err := artifact.Decode(postCompile(t, base, body))
	if err != nil {
		t.Fatal(err)
	}
	zero := false
	for _, p := range a.Partitions {
		zero = zero || p.Est.SMBytes == 0
	}
	if !zero {
		t.Error("no partition with zero shared-memory demand: the request no longer exercises the case")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the compile answered %d", resp.StatusCode)
	}
}

// TestServerHealthzAndDrain: /healthz flips 200 -> 503 when draining and
// new compile requests are refused, which is how a load balancer is told
// to stop routing here before shutdown.
func TestServerHealthzAndDrain(t *testing.T) {
	srv, base := startServer(t, server.Config{})
	healthz := func() int {
		t.Helper()
		status, _, err := get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		return status
	}
	if status := healthz(); status != http.StatusOK {
		t.Fatalf("healthz answered %d", status)
	}
	srv.SetDraining(true)
	if healthz() == http.StatusOK {
		t.Error("draining server still answers healthy")
	}
	g := appGraph(t, "DES", 8)
	if _, err := postJSON(context.Background(), base+"/v1/compile", server.NewRequest(g, testOpts(2))); err == nil {
		t.Error("draining server accepted a compile")
	}
	srv.SetDraining(false)
	if status := healthz(); status != http.StatusOK {
		t.Errorf("undrained server unhealthy: %d", status)
	}
}

// TestServerStatsEndpoint: /stats is gone — /metrics is the node's only
// read-out — and everything it used to report accounts, on the registry,
// for the requests made.
func TestServerStatsEndpoint(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { stopServer(t, srv, ts) })
	base := ts.URL
	g := appGraph(t, "DES", 8)
	req := server.NewRequest(g, testOpts(2))
	for i := 0; i < 3; i++ {
		if _, err := postJSON(context.Background(), base+"/v1/compile", req); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats answered %d, want 404", resp.StatusCode)
	}
	if requests := counter(t, srv, "streammap_http_requests_total", route("compile")); requests != 3 {
		t.Errorf("requests %d, want 3", requests)
	}
	if misses, hits := counter(t, srv, "streammap_cache_misses_total"), counter(t, srv, "streammap_cache_hits_total", tier("memory")); misses != 1 || hits != 2 {
		t.Errorf("%d compiles and %d table hits, want 1 and 2", misses, hits)
	}
	if encodes := counter(t, srv, "streammap_artifact_encodes_total"); encodes != 1 {
		t.Errorf("%d artifact encodes for 3 identical requests, want 1 (hits must serve the stored bytes)", encodes)
	}
	if queries := counter(t, srv, "streammap_engine_queries_total"); queries == 0 {
		t.Error("engine aggregate empty after a fresh compile")
	}
	if start, ok := srv.Metrics().Get("process_start_time_seconds"); !ok || time.Since(time.Unix(int64(start), 0)) > time.Hour {
		t.Errorf("process_start_time_seconds = %g, %v; want a moment ago (uptime is now minus it)", start, ok)
	}
	stopServer(t, srv, ts) // the latency record is written after the response
	sum, ok := srv.Metrics().Get("streammap_request_duration_seconds_sum", route("compile"))
	if timed := counter(t, srv, "streammap_request_duration_seconds_count", route("compile")); timed != 3 || !ok || sum <= 0 {
		t.Errorf("latency record after 3 requests: %d samples, %gs in all (%v)", timed, sum, ok)
	}
}

// loadTally counts one replay's outcomes: a 429 is shed load, anything
// but a 200 or a 429 an error.
type loadTally struct {
	mu                  sync.Mutex
	sent, ok, throttled int
	errors              []string
}

// add records one response and reports whether it was a 200.
func (l *loadTally) add(status int, body []byte, err error) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent++
	switch {
	case err != nil:
		l.errors = append(l.errors, err.Error())
	case status == http.StatusOK:
		l.ok++
		return true
	case status == http.StatusTooManyRequests:
		l.throttled++
	default:
		l.errors = append(l.errors, fmt.Sprintf("%d: %s", status, body))
	}
	return false
}

// postBody posts one JSON body and returns the response as served.
func postBody(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp.StatusCode, got, err
}

// synthTraffic is a seeded compile workload over synth's corpus: the
// first hot scenarios are the hot set, the hottest of them drawn ~70% of
// the time, and with mixed, half the requests are each a scenario of their
// own. It returns the offered sequence of scenario indices and each
// referenced scenario's request body.
func synthTraffic(t *testing.T, seed uint64, hot, n int, mixed bool) ([]int, map[int][]byte) {
	t.Helper()
	corpus, err := synth.Corpus(synth.CorpusParams{Seed: seed, Scenarios: hot + n, MaxFilters: 12, MaxGPUs: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := synth.NewRand(seed ^ 0xA5A5A5A5A5A5A5A5)
	seq, next := make([]int, n), hot
	for i := range seq {
		switch {
		case mixed && rng.Intn(2) == 1:
			seq[i], next = next, next+1
		case rng.Intn(100) < 70:
			seq[i] = 0
		default:
			seq[i] = rng.Intn(hot)
		}
	}
	bodies := map[int][]byte{}
	for _, k := range seq {
		if bodies[k] != nil {
			continue
		}
		g, err := corpus[k].BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		if bodies[k], err = json.Marshal(server.NewRequest(g, corpus[k].Opts)); err != nil {
			t.Fatal(err)
		}
	}
	return seq, bodies
}

// replay posts bodies[k] to baseURL's /v1/compile for each k of seq, from
// unpaced workers, and returns the tally and each scenario's first 200
// body. onOK, when set, runs in the worker on every 200; pos is the
// request's place in seq.
func replay(baseURL string, seq []int, bodies map[int][]byte, workers int, onOK func(pos int, body []byte)) (*loadTally, map[int][]byte) {
	return replayTo(func(int) string { return baseURL }, seq, bodies, workers, onOK)
}

// replayTo is replay with request pos sent to the server at baseURL(pos).
func replayTo(baseURL func(pos int) string, seq []int, bodies map[int][]byte, workers int, onOK func(pos int, body []byte)) (*loadTally, map[int][]byte) {
	tally, served := &loadTally{}, map[int][]byte{}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range feed {
				status, body, err := postBody(baseURL(pos)+"/v1/compile", bodies[seq[pos]])
				if !tally.add(status, body, err) {
					continue
				}
				tally.mu.Lock()
				if served[seq[pos]] == nil {
					served[seq[pos]] = body
				}
				tally.mu.Unlock()
				if onOK != nil {
					onOK(pos, body)
				}
			}
		}()
	}
	for pos := range seq {
		feed <- pos
	}
	close(feed)
	wg.Wait()
	return tally, served
}

// TestEndToEndLoadTest is the acceptance run: >= 200 requests of mixed
// hot-key/unique traffic against a live server must complete with zero
// non-429 errors, the pipeline must run at most once per unique graph
// (coalesced and cached repeats never recompile — checked on the server's
// own counters), and every served body must be byte-identical to a local
// compile's encoding.
func TestEndToEndLoadTest(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	srv, base := startServer(t, server.Config{
		// Queue deep enough that the offered load, not shedding, shapes
		// the run; the shedding path has its own test above.
		Service: core.ServiceConfig{MaxQueue: 512},
	})
	seq, bodies := synthTraffic(t, 0xBEEF, 4, 220, true)
	res, served := replay(base, seq, bodies, 24, nil)
	t.Logf("sent %d: %d ok, %d throttled, %d errors, %d unique graphs", res.sent, res.ok, res.throttled, len(res.errors), len(bodies))

	if res.sent != 220 {
		t.Errorf("sent %d requests, want 220", res.sent)
	}
	if len(res.errors) > 0 {
		t.Errorf("%d non-429 errors (first: %s), want 0", len(res.errors), res.errors[0])
	}
	if res.ok+res.throttled != res.sent {
		t.Errorf("accounting: %d ok + %d throttled != %d sent", res.ok, res.throttled, res.sent)
	}
	if misses := counter(t, srv, "streammap_cache_misses_total"); misses > int64(len(bodies)) {
		t.Errorf("pipeline ran %d times for %d unique graphs: a coalesced or cached request recompiled",
			misses, len(bodies))
	}
	if len(served) == 0 {
		t.Error("verification covered zero artifacts")
	}
	for k, body := range served {
		if local := localCompile(t, bodies[k]); !bytes.Equal(local, body) {
			t.Errorf("scenario %d: served artifact (%d bytes) differs from the local compile's (%d bytes)", k, len(body), len(local))
		}
	}
	if res.throttled > 0 && counter(t, srv, "streammap_rejected_total") == 0 {
		t.Errorf("clients saw %d throttles but the server counted none", res.throttled)
	}
}

// TestRemapUnderLoad is the degraded-serving acceptance run: hot traffic
// against a live server, a device failure halfway through, and from then
// on every served artifact of two or more GPUs is also re-targeted through
// /v1/remap with its last GPU removed while compiles continue. No request
// may fail, every remap must answer the bytes of a local warm remap of the
// same artifact, and the server's stage histograms must show no partition
// or map pass beyond the run's fresh compiles.
func TestRemapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("remap load test skipped in -short mode")
	}
	srv := server.New(server.Config{Service: core.ServiceConfig{MaxQueue: 512}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { stopServer(t, srv, ts) })
	seq, bodies := synthTraffic(t, 0xFA11, 4, 60, false)

	type remapped struct{ artifact, served []byte }
	var (
		remaps   = &loadTally{}
		mu       sync.Mutex
		answered []remapped
	)
	res, _ := replay(ts.URL, seq, bodies, 12, func(pos int, body []byte) {
		if pos < len(seq)/2 {
			return
		}
		a, err := artifact.Decode(body)
		if err != nil {
			remaps.add(0, nil, err)
			return
		}
		gpus := len(a.Options.Topo.GPUNodes)
		if gpus < 2 {
			return
		}
		req, err := json.Marshal(server.RemapRequest{
			Artifact:    body,
			Degradation: topology.Degradation{RemoveGPUs: []int{gpus - 1}},
		})
		if err != nil {
			remaps.add(0, nil, err)
			return
		}
		status, served, err := postBody(ts.URL+"/v1/remap", req)
		if remaps.add(status, served, err) {
			mu.Lock()
			answered = append(answered, remapped{body, served})
			mu.Unlock()
		}
	})
	stopServer(t, srv, ts) // every handler has returned: the histograms are final
	t.Logf("%d compiles sent, %d remaps after the device loss", res.sent, remaps.sent)

	if errs := append(res.errors, remaps.errors...); len(errs) > 0 {
		t.Errorf("%d requests failed after the device loss (first: %s); every request must still get a valid plan", len(errs), errs[0])
	}
	if res.ok+res.throttled != res.sent {
		t.Errorf("accounting: %d ok + %d throttled != %d sent", res.ok, res.throttled, res.sent)
	}
	if remaps.sent == 0 {
		t.Fatal("the device failure produced no remap traffic; the seed's hot set must contain multi-GPU scenarios")
	}
	want := map[string][]byte{} // per served artifact, the local warm remap's bytes
	for _, r := range answered {
		w, ok := want[string(r.artifact)]
		if !ok {
			w = localRemap(t, r.artifact)
			want[string(r.artifact)] = w
		}
		if !bytes.Equal(w, r.served) {
			t.Errorf("served remap (%d bytes) is not the local warm remap's bytes (%d)", len(r.served), len(w))
		}
	}
	if remaps.ok != remaps.sent {
		t.Errorf("only %d of %d remaps returned a plan", remaps.ok, remaps.sent)
	}
	if served := counter(t, srv, "streammap_http_requests_total", route("remap")); served != int64(remaps.sent) {
		t.Errorf("server counted %d remap requests, clients issued %d", served, remaps.sent)
	}
	if served := counter(t, srv, "streammap_http_requests_total", route("compile")); served != int64(res.sent) {
		t.Errorf("server counted %d compile requests, clients issued %d", served, res.sent)
	}
	compiles := counter(t, srv, "streammap_compile_seconds_count")
	for _, st := range []string{"partition", "map"} {
		if n := counter(t, srv, "streammap_stage_duration_seconds_count", obs.Label{Key: "stage", Value: st}); n != compiles {
			t.Errorf("%d %s passes ran for %d fresh compiles: a remap re-ran the pipeline", n, st, compiles)
		}
	}
}

// localCompile is what /v1/compile must answer for a request body: the
// local compile's encoding.
func localCompile(t *testing.T, body []byte) []byte {
	t.Helper()
	var req server.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	g, err := sdf.ImportGraph(req.Graph)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := driver.ImportOptions(req.Options)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 2
	c, err := driver.Compile(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return encoded(t, c)
}

// encoded is a compile's artifact, encoded.
func encoded(t *testing.T, c *driver.Compiled) []byte {
	t.Helper()
	a, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// localRemap is what /v1/remap must answer for an artifact with its last
// GPU removed: the local warm remap's encoding.
func localRemap(t *testing.T, body []byte) []byte {
	t.Helper()
	a, err := artifact.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	degraded, gpuMap, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{len(a.Options.Topo.GPUNodes) - 1}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{GPUMap: gpuMap})
	if err != nil {
		t.Fatal(err)
	}
	return encoded(t, c)
}

// TestServerRemapEndpoint: a served artifact fed back through /v1/remap
// with a device removed and a link throttled comes back as a valid plan
// for the degraded machine — the bytes of a local warm remap — having run
// the remap stage and no pipeline stage; malformed or stale degradations
// answer 400.
func TestServerRemapEndpoint(t *testing.T) {
	srv, base := startServer(t, server.Config{})
	ctx := context.Background()
	g := appGraph(t, "DES", 8)
	a, err := postJSON(ctx, base+"/v1/compile", server.NewRequest(g, testOpts(4)))
	if err != nil {
		t.Fatal(err)
	}

	deg := topology.Degradation{
		RemoveGPUs: []int{3},
		Throttles:  []topology.Throttle{{Node: 1, BandwidthGBs: 4, LatencyUS: -1}},
	}
	req, err := server.NewRemapRequest(a, deg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	stageRuns := func(stage string) int64 {
		return counter(t, srv, "streammap_stage_duration_seconds_count", obs.Label{Key: "stage", Value: stage})
	}
	partitions, maps := stageRuns("partition"), stageRuns("map")
	// Through the handler, which returns only once the request's trace is
	// finished; a client holds the response before that.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/remap", bytes.NewReader(payload)))
	if rec.Code != http.StatusOK {
		t.Fatalf("remap answered %d: %s", rec.Code, rec.Body)
	}
	served := rec.Body.Bytes()
	ra, err := artifact.Decode(served)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Remap == nil {
		t.Fatal("remapped artifact carries no remap provenance")
	}
	if got := len(ra.Options.Topo.GPUNodes); got != 3 {
		t.Errorf("remapped topology has %d GPUs, want 3", got)
	}
	if got := len(ra.Remap.FromTopo.GPUNodes); got != 4 {
		t.Errorf("remap provenance records a %d-GPU origin, want 4", got)
	}
	if p, m := stageRuns("partition"), stageRuns("map"); p != partitions || m != maps {
		t.Errorf("served remap re-ran pipeline stages: partition %d -> %d, map %d -> %d observations", partitions, p, maps, m)
	}
	// Found by name, not as the newest: the compile's trace can finish
	// after its client held the response, and so after the remap's.
	recent := handlerTraces(t, srv).Recent
	i := slices.IndexFunc(recent, func(tr *obs.TraceRecord) bool { return tr.Name == "remap" })
	if i < 0 {
		t.Fatal("no remap trace retained")
	}
	stages := stageSpans(recent[i])
	delete(stages, "stage.remap-merge")
	if len(stages) != 1 || stages["stage.remap"] != 1 {
		t.Errorf("served remap's trace has stage spans %v, want stage.remap alone", stages)
	}

	// The server must take the warm path: its answer is the local warm
	// remap, byte for byte.
	degraded, gpuMap, err := driver.Degrade(a, deg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Remap(ctx, a, degraded, driver.RemapOptions{GPUMap: gpuMap})
	if err != nil {
		t.Fatal(err)
	}
	local, err := c.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := local.Encode(); err != nil || !bytes.Equal(want, served) {
		t.Errorf("served remap is not the local warm remap's bytes (encode: %v): %v", err, driver.EquivalentArtifacts(local, ra))
	}

	// Stale or impossible degradations are the client's error, not a 500.
	for name, bad := range map[string]topology.Degradation{
		"remove all GPUs":     {RemoveGPUs: []int{0, 1, 2, 3}},
		"remove unknown GPU":  {RemoveGPUs: []int{9}},
		"throttle stale node": {RemoveGPUs: []int{3}, Throttles: []topology.Throttle{{Node: 99, BandwidthGBs: 1}}},
	} {
		breq, err := server.NewRemapRequest(a, bad)
		if err != nil {
			t.Fatal(err)
		}
		_, err = postJSON(ctx, base+"/v1/remap", breq)
		var we *wireError
		if !errors.As(err, &we) || we.status != http.StatusBadRequest {
			t.Errorf("%s: answered %v, want 400", name, err)
		}
	}
	raw, err := http.Post(base+"/v1/remap", "application/json", strings.NewReader(`{"artifact":{"format":999}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage artifact answered %d, want 400", raw.StatusCode)
	}

	if remaps := counter(t, srv, "streammap_http_requests_total", route("remap")); remaps != 5 {
		t.Errorf("server counted %d remap requests, want 5", remaps)
	}
	if misses := counter(t, srv, "streammap_cache_misses_total"); misses != 1 {
		t.Errorf("remapping ran %d pipeline compiles, want the 1 original", misses)
	}
}

// TestRequestRoundTripsThroughJSON pins the request wire format: a request
// marshalled and unmarshalled must import to the same fingerprint and the
// same normalized options.
func TestRequestRoundTripsThroughJSON(t *testing.T) {
	g := appGraph(t, "FMRadio", 4)
	req := server.NewRequest(g, testOpts(4))
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back server.CompileRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	g2, err := sdf.ImportGraph(back.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Errorf("fingerprint drifted through JSON: %016x != %016x", g2.Fingerprint(), g.Fingerprint())
	}
	opts, err := driver.ImportOptions(back.Options)
	if err != nil {
		t.Fatal(err)
	}
	if wire := driver.ExportOptions(opts); !jsonEqual(t, wire, req.Options) {
		t.Errorf("options drifted through JSON: %+v != %+v", wire, req.Options)
	}
	_ = artifact.FormatVersion // the response format is pinned by TestWireGoldenRoundTrip
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}
