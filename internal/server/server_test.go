package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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
	"streammap/internal/server/client"
	"streammap/internal/server/loadtest"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { stopServer(t, srv, ts) })
	return srv, client.New(ts.URL)
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
	_, cl := startServer(t, server.Config{})
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
		served, err := cl.Compile(ctx, server.NewRequest(tc.g, tc.opts))
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
	srv, cl := startServer(t, server.Config{MaxInFlight: 1, MaxQueue: 1})
	g := appGraph(t, "DES", 8)
	req := server.NewRequest(g, testOpts(2))

	const N = 32
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Compile(context.Background(), req)
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

// TestServerShedsLoadWith429: distinct requests beyond MaxInFlight +
// MaxQueue are rejected with 429 and a Retry-After hint rather than piling
// up, and the survivors still compile correctly. A 429 is latency the client
// observed (its admission wait), so the shed requests are in the latency
// record too: it holds every request received, not just the ones served.
func TestServerShedsLoadWith429(t *testing.T) {
	srv := server.New(server.Config{MaxInFlight: 1, MaxQueue: 1, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { stopServer(t, srv, ts) })
	cl := client.New(ts.URL)
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
		retry     time.Duration
	)
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := cl.Compile(context.Background(), reqs[i])
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				ok++
				return
			}
			d, is := client.IsThrottled(err)
			if !is {
				t.Errorf("request %d: %v, want success or Throttled", i, err)
				return
			}
			throttled++
			retry = d
		}(i)
	}
	wg.Wait()
	if throttled == 0 {
		t.Fatalf("no request was throttled (%d ok) with MaxInFlight=1 MaxQueue=1 and %d distinct concurrent requests", ok, len(reqs))
	}
	if ok == 0 {
		t.Fatal("every request was throttled; admission must still serve the slot holder")
	}
	if retry != 3*time.Second {
		t.Errorf("Retry-After hint %s, want the configured 3s", retry)
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

// TestServerDiskTierAcrossRestart is the byte-identity referee of the
// serving path: for one key, the fresh response, a table hit, a disk-tier
// hit after a restart, a shared-store hit on a second node and a peer
// fetch through a fleet are the same bytes — the one encoding the one
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

	restarted, cl := startServer(t, server.Config{Service: core.ServiceConfig{CacheDir: dir}})
	all = append(all, restarted)
	answers["disk hit after restart"] = postCompile(t, cl.BaseURL, body)
	if hits, misses := counter(t, restarted, "streammap_cache_hits_total", tier("disk")), counter(t, restarted, "streammap_cache_misses_total"); hits != 1 || misses != 0 {
		t.Errorf("restarted server: %d disk hits / %d compiles, want 1 / 0", hits, misses)
	}

	second, cl := startServer(t, server.Config{Service: core.ServiceConfig{
		CacheDir: t.TempDir(), Shared: fleet.NewDirStore(storeDir)}})
	all = append(all, second)
	answers["store hit on a second node"] = postCompile(t, cl.BaseURL, body)
	if hits, misses := counter(t, second, "streammap_cache_hits_total", tier("store")), counter(t, second, "streammap_cache_misses_total"); hits != 1 || misses != 0 {
		t.Errorf("second node: %d store hits / %d compiles, want 1 / 0", hits, misses)
	}

	answers["peer fetch"] = postCompile(t, nodes[1].url, body)
	if hits := counter(t, nodes[1].srv, "streammap_fleet_peer_hits_total"); hits != 1 {
		t.Errorf("non-owner counted %d peer hits, want 1", hits)
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
	srv, cl := startServer(t, server.Config{})
	base := cl.BaseURL

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
	if resp := post(`{"graph":{"name":"empty"},"options":{}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty graph answered %d, want 400", resp.StatusCode)
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
	_, cl := startServer(t, server.Config{})
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
	a, err := artifact.Decode(postCompile(t, cl.BaseURL, body))
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
	resp, err := http.Get(cl.BaseURL + "/healthz")
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
	srv, cl := startServer(t, server.Config{})
	if err := cl.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	srv.SetDraining(true)
	if err := cl.Healthz(context.Background()); err == nil {
		t.Error("draining server still answers healthy")
	}
	g := appGraph(t, "DES", 8)
	if _, err := cl.Compile(context.Background(), server.NewRequest(g, testOpts(2))); err == nil {
		t.Error("draining server accepted a compile")
	}
	srv.SetDraining(false)
	if err := cl.Healthz(context.Background()); err != nil {
		t.Errorf("undrained server unhealthy: %v", err)
	}
}

// TestServerStatsEndpoint: /stats is gone — /metrics is the node's only
// read-out — and everything it used to report accounts, on the registry,
// for the requests made.
func TestServerStatsEndpoint(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { stopServer(t, srv, ts) })
	cl := client.New(ts.URL)
	g := appGraph(t, "DES", 8)
	req := server.NewRequest(g, testOpts(2))
	for i := 0; i < 3; i++ {
		if _, err := cl.Compile(context.Background(), req); err != nil {
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
	p50, ok := srv.Metrics().Quantile("streammap_request_duration_seconds", 0.50, route("compile"))
	if timed := counter(t, srv, "streammap_request_duration_seconds_count", route("compile")); timed != 3 || !ok || p50 <= 0 {
		t.Errorf("latency record after 3 requests: %d samples, p50 %gs (%v)", timed, p50, ok)
	}
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
	srv, cl := startServer(t, server.Config{
		// Queue deep enough that pacing, not shedding, shapes the run; the
		// shedding path has its own test above.
		MaxQueue: 512,
	})
	res, err := loadtest.Run(context.Background(), cl, loadtest.Params{
		Seed:       0xBEEF,
		Requests:   220,
		RPS:        0, // unpaced: the fleet offers as hard as it can
		Fleet:      24,
		Mix:        loadtest.MixMixed,
		MaxFilters: 12,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res.Fprint(&out)
	t.Logf("\n%s", out.String())

	if res.Sent != 220 {
		t.Errorf("sent %d requests, want 220", res.Sent)
	}
	if res.Errors > 0 {
		t.Errorf("%d non-429 errors (first: %s), want 0", res.Errors, res.FirstError)
	}
	if res.OK+res.Throttled != res.Sent {
		t.Errorf("accounting: %d ok + %d throttled != %d sent", res.OK, res.Throttled, res.Sent)
	}
	if misses := counter(t, srv, "streammap_cache_misses_total"); misses > int64(res.Unique) {
		t.Errorf("pipeline ran %d times for %d unique graphs: a coalesced or cached request recompiled",
			misses, res.Unique)
	}
	if res.Verified == 0 {
		t.Error("verification covered zero artifacts")
	}
	if len(res.VerifyErrors) > 0 {
		t.Errorf("%d served artifacts differ from local compiles: %v", len(res.VerifyErrors), res.VerifyErrors[0])
	}
	if res.Throttled > 0 && counter(t, srv, "streammap_rejected_total") == 0 {
		t.Errorf("clients saw %d throttles but the server counted none", res.Throttled)
	}
}

// TestServerRemapEndpoint: a served artifact fed back through /v1/remap
// with a device removed and a link throttled comes back as a valid plan
// for the degraded machine — the bytes of a local warm remap — having run
// the remap stage and no pipeline stage; malformed or stale degradations
// answer 400.
func TestServerRemapEndpoint(t *testing.T) {
	srv, cl := startServer(t, server.Config{})
	ctx := context.Background()
	g := appGraph(t, "DES", 8)
	a, err := cl.Compile(ctx, server.NewRequest(g, testOpts(4)))
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
	stages := stageSpans(handlerTraces(t, srv).Recent[0]) // newest first: the remap
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
		_, err = cl.Remap(ctx, breq)
		var se *client.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
			t.Errorf("%s: answered %v, want StatusError 400", name, err)
		}
	}
	raw, err := http.Post(cl.BaseURL+"/v1/remap", "application/json", strings.NewReader(`{"artifact":{"format":999}}`))
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
