package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"streammap/internal/core"
	"streammap/internal/obs"
	"streammap/internal/server"
)

// handlerTraces reads srv's /debug/traces through the handler, for a server
// whose listener was just closed or whose requests went through Handler()
// directly — either way every handler has finished its trace. (Read over a
// live listener, a trace can still be behind the client: the handler
// finishes it after writing a length-declared response.)
func handlerTraces(t *testing.T, srv *server.Server) obs.TracesSnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces answered %d", rec.Code)
	}
	var snap obs.TracesSnapshot
	if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	return snap
}

// handlerCompile posts body to srv's compile route through the handler
// itself, so the request's trace and response metrics are final once it
// returns; a client over a listener holds a length-declared response before
// the handler has finished them.
func handlerCompile(t *testing.T, srv *server.Server, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("compile answered %d: %s", rec.Code, rec.Body)
	}
}

// stageSpans is spanNames restricted to the driver's stage.* spans: which
// passes a request ran, now that no artifact says.
func stageSpans(tr *obs.TraceRecord) map[string]int {
	out := spanNames(tr)
	for n := range out {
		if !strings.HasPrefix(n, "stage.") {
			delete(out, n)
		}
	}
	return out
}

// spanNames collects a trace's span names (the root span included).
func spanNames(tr *obs.TraceRecord) map[string]int {
	out := map[string]int{}
	for _, sp := range tr.Spans {
		out[sp.Name]++
	}
	return out
}

// TestMetricsEndpoint: /metrics serves a parseable Prometheus text
// exposition whose counters agree with the traffic sent. The requests go
// through the handler directly (handlerCompile), so the responses' class
// and duration are recorded before the scrape.
func TestMetricsEndpoint(t *testing.T) {
	srv, base := startServer(t, server.Config{})
	body, err := json.Marshal(server.NewRequest(appGraph(t, "DES", 8), testOpts(2)))
	if err != nil {
		t.Fatal(err)
	}
	// The third arrives in a spelling only encoding/json takes (a member no
	// decoder knows): same key, same hit, counted as a decode fallback.
	for _, b := range [][]byte{body, body, append([]byte(`{"note":"x",`), body[1:]...)} {
		handlerCompile(t, srv, b)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q, want the 0.0.4 text exposition", ct)
	}

	sm, err := scrape(base)
	if err != nil {
		t.Fatalf("scrape did not parse: %v", err)
	}
	expect := func(name string, want float64, labels ...obs.Label) {
		t.Helper()
		got, ok := sm.Get(name, labels...)
		if !ok {
			t.Errorf("%s%v absent from /metrics", name, labels)
			return
		}
		if got != want {
			t.Errorf("%s%v = %g, want %g", name, labels, got, want)
		}
	}
	expect("streammap_http_requests_total", 3, obs.Label{Key: "route", Value: "compile"})
	expect("streammap_http_responses_total", 3,
		obs.Label{Key: "route", Value: "compile"}, obs.Label{Key: "class", Value: "2xx"})
	expect("streammap_request_duration_seconds_count", 3, obs.Label{Key: "route", Value: "compile"})
	expect("streammap_cache_misses_total", 1)
	expect("streammap_cache_hits_total", 2, obs.Label{Key: "tier", Value: "memory"})
	expect("streammap_compile_seconds_count", 1)
	expect("streammap_admission_wait_seconds_count", 1) // only the run that compiled took a slot; hits return before admission
	expect("streammap_request_decode_fallback_total", 1)
	// Garbage and GC cycles per request are two scrapes of these apart.
	if v, ok := sm.Get("go_memstats_alloc_bytes_total"); !ok || v <= 0 {
		t.Errorf("go_memstats_alloc_bytes_total = %g, %v; want a positive count", v, ok)
	}
	if _, ok := sm.Get("go_gc_cycles_total"); !ok {
		t.Error("go_gc_cycles_total absent from /metrics")
	}

	// The fresh compile must have landed per-stage durations.
	stages := 0.0
	for k, v := range sm {
		if strings.HasPrefix(k, "streammap_stage_duration_seconds_count{") {
			stages += v
		}
	}
	if stages == 0 {
		t.Error("no streammap_stage_duration_seconds samples after a fresh compile")
	}
}

// TestTracesEndpoint: a compile's trace lands in /debug/traces with the
// full span story — admission wait, memory-tier probe, the compilation,
// per-stage spans — and a repeat request's trace shows the hit instead.
// The requests go through the handler (handlerCompile), so each trace is
// finished before it is read.
func TestTracesEndpoint(t *testing.T) {
	srv, _ := startServer(t, server.Config{})
	body, err := json.Marshal(server.NewRequest(appGraph(t, "DES", 8), testOpts(2)))
	if err != nil {
		t.Fatal(err)
	}
	handlerCompile(t, srv, body)

	snap := handlerTraces(t, srv)
	if len(snap.Recent) != 1 {
		t.Fatalf("%d recent traces after one request, want 1", len(snap.Recent))
	}
	fresh := snap.Recent[0]
	if fresh.Name != "compile" || fresh.Status != http.StatusOK {
		t.Errorf("trace = %s/%d, want compile/200", fresh.Name, fresh.Status)
	}
	if fresh.ID == "" || fresh.DurUS <= 0 {
		t.Errorf("trace missing identity or duration: id=%q durUS=%d", fresh.ID, fresh.DurUS)
	}
	names := spanNames(fresh)
	for _, want := range []string{"admission.wait", "cache.memory"} {
		if names[want] == 0 {
			t.Errorf("fresh-compile trace has no %q span (spans: %v)", want, names)
		}
	}
	// "compile" names both the root span (the route) and the compilation.
	if names["compile"] != 2 {
		t.Errorf("fresh-compile trace has %d compile spans, want root + compilation (spans: %v)",
			names["compile"], names)
	}
	stageSpans := 0
	for n := range names {
		if strings.HasPrefix(n, "stage.") {
			stageSpans++
		}
	}
	if stageSpans == 0 {
		t.Errorf("fresh-compile trace has no stage.* spans (spans: %v)", names)
	}

	// A repeat of the same request is a memory hit: no compile span, and
	// the cache.memory span carries the hit note.
	handlerCompile(t, srv, body)
	snap = handlerTraces(t, srv)
	hit := snap.Recent[0] // newest first
	hnames := spanNames(hit)
	if hnames["compile"] != 1 { // the root span only; no compilation ran
		t.Errorf("memory-hit trace recorded a compilation span (spans: %v)", hnames)
	}
	found := false
	for _, sp := range hit.Spans {
		if sp.Name == "cache.memory" && sp.Note == "hit" {
			found = true
		}
	}
	if !found {
		t.Errorf("memory-hit trace has no cache.memory span noted 'hit': %+v", hit.Spans)
	}
}

// TestFleetProxySharesTraceID: a request proxied from a non-owner to its
// owner is one trace — the same ID appears in both nodes' /debug/traces,
// the non-owner's trace shows the routing spans, and the owner's adopted
// trace parents itself under the proxying node's span and carries the
// compilation. Each node finishes its trace after writing a response whose
// length is declared, so a client can hold the whole answer first: every
// node's listener is closed — which waits for its handlers — before its
// snapshot is taken from the handler directly.
func TestFleetProxySharesTraceID(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	g, opts := graphOwnedBy(t, nodes, 1)
	if _, err := postJSON(context.Background(), nodes[0].url+"/v1/compile", server.NewRequest(g, opts)); err != nil {
		t.Fatal(err)
	}

	nodes[0].ts.Close()
	snap0 := handlerTraces(t, nodes[0].srv)
	if len(snap0.Recent) != 1 {
		t.Fatalf("node0 retained %d traces after one request, want 1", len(snap0.Recent))
	}
	entry := snap0.Recent[0]
	if entry.ParentSpan != "" {
		t.Errorf("the entry node's trace claims an upstream parent %q", entry.ParentSpan)
	}
	names := spanNames(entry)
	for _, want := range []string{"fleet.local", "fleet.proxy"} {
		if names[want] == 0 {
			t.Errorf("entry-node trace has no %q span (spans: %v)", want, names)
		}
	}
	if names["compile"] > 1 { // root span only; the pipeline ran on the owner
		t.Errorf("entry node recorded a compilation it proxied away (spans: %v)", names)
	}

	// The owner served the forwarded compile under the same trace ID.
	nodes[1].ts.Close()
	snap1 := handlerTraces(t, nodes[1].srv)
	var forwarded *obs.TraceRecord
	for _, tr := range snap1.Recent {
		if tr.ID == entry.ID && tr.Name == "compile" {
			forwarded = tr
		}
	}
	if forwarded == nil {
		t.Fatalf("owner retains no compile trace with the entry node's ID %s", entry.ID)
	}
	if forwarded.ParentSpan == "" {
		t.Error("owner's adopted trace records no upstream parent span")
	}
	if forwarded.Node != nodes[1].url || entry.Node != nodes[0].url {
		t.Errorf("trace node stamps %q/%q, want %q/%q",
			entry.Node, forwarded.Node, nodes[0].url, nodes[1].url)
	}
	fnames := spanNames(forwarded)
	if fnames["compile"] < 2 { // root span + the compilation span
		t.Errorf("owner's trace carries no compilation span (spans: %v)", fnames)
	}
	stageSpans := 0
	for n := range fnames {
		if strings.HasPrefix(n, "stage.") {
			stageSpans++
		}
	}
	if stageSpans == 0 {
		t.Errorf("owner's trace has no stage.* spans (spans: %v)", fnames)
	}

	// One request, one story: every trace retained anywhere shares the ID.
	for _, tr := range snap1.Recent {
		if tr.ID != entry.ID {
			t.Errorf("owner retains a foreign trace %s (%s), want only %s", tr.ID, tr.Name, entry.ID)
		}
	}
}

// TestFleetMetricsPerNode: every fleet member exposes the fleet routing
// counters on its own /metrics, and the proxied request above shows up
// as proxied on the entry node and forwarded on the owner.
func TestFleetMetricsPerNode(t *testing.T) {
	nodes := startFleetNodes(t, 3, nil)
	g, opts := graphOwnedBy(t, nodes, 1)
	ctx := context.Background()
	if _, err := postJSON(ctx, nodes[0].url+"/v1/compile", server.NewRequest(g, opts)); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		sm, err := scrape(n.url)
		if err != nil {
			t.Fatalf("node%d scrape: %v", i, err)
		}
		if alive, ok := sm.Get("streammap_fleet_peers_alive"); !ok || alive != 3 {
			t.Errorf("node%d peers_alive = %g, %v; want 3", i, alive, ok)
		}
	}
	sm0, err := scrape(nodes[0].url)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sm0.Get("streammap_fleet_proxied_total"); v != 1 {
		t.Errorf("entry node proxied_total = %g, want 1", v)
	}
	sm1, err := scrape(nodes[1].url)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sm1.Get("streammap_fleet_forwarded_total"); v != 1 {
		t.Errorf("owner forwarded_total = %g, want 1", v)
	}
}

// spanSequence returns a trace's spans in the order they ended, the root
// and the compiler's interior (per-stage spans and the mapper's descents,
// which end in scheduling order) left out — the request's layers, in
// request order.
func spanSequence(tr *obs.TraceRecord) []string {
	var seq []string
	for _, sp := range tr.Spans[:len(tr.Spans)-1] { // the root span is appended last
		if !strings.HasPrefix(sp.Name, "stage.") && !strings.HasPrefix(sp.Name, "map.") {
			seq = append(seq, sp.Name+"/"+sp.Note)
		}
	}
	return seq
}

// mapperSpans checks the mapper's interior on a fresh compile's trace: one
// map.descent span per cold seed, each a child of stage.map and noted with
// its counts, and stage.map noted with the winner.
func mapperSpans(t *testing.T, tr *obs.TraceRecord) {
	t.Helper()
	var stageMap *obs.SpanRecord
	for i := range tr.Spans {
		if tr.Spans[i].Name == "stage.map" {
			stageMap = &tr.Spans[i]
		}
	}
	if stageMap == nil {
		t.Fatal("fresh compile left no stage.map span")
	}
	if !strings.HasPrefix(stageMap.Note, "winner=") || !strings.Contains(stageMap.Note, " local_seed=") {
		t.Errorf("stage.map note %q does not name the winner", stageMap.Note)
	}
	var seeds []string
	for _, sp := range tr.Spans {
		if sp.Name != "map.descent" {
			continue
		}
		if sp.Parent != stageMap.ID {
			t.Errorf("map.descent %q is not a child of stage.map", sp.Note)
		}
		for _, field := range []string{" candidates=", " time_rejected=", " accepts=", " budget_cut="} {
			if !strings.Contains(sp.Note, field) {
				t.Errorf("map.descent note %q lacks%s", sp.Note, field)
			}
		}
		seeds = append(seeds, strings.Fields(sp.Note)[0])
	}
	sort.Strings(seeds)
	if got, want := strings.Join(seeds, " "), "seed=block seed=greedy seed=round-robin"; got != want {
		t.Errorf("map.descent spans for %q, want %q", got, want)
	}
}

// TestSpanSequencePerOutcome pins which layers a request passes through,
// and in what order, for the three ways a compile is answered — presence
// and order only, no wall-clock. A fresh compile probes the table and the
// disk tier, builds its graph, waits for a slot, runs the pipeline and
// encodes once; a table hit and a disk-tier hit after a restart touch
// neither the graph nor admission nor the pipeline nor the encoder. The
// second request to one server finds its options in the options table. The
// requests go through the handler (handlerCompile), so each trace is
// finished before it is read.
func TestSpanSequencePerOutcome(t *testing.T) {
	dir := t.TempDir()
	g := appGraph(t, "DES", 8)
	body, err := json.Marshal(server.NewRequest(g, testOpts(2)))
	if err != nil {
		t.Fatal(err)
	}
	newest := func(srv *server.Server) []string {
		t.Helper()
		return spanSequence(handlerTraces(t, srv).Recent[0])
	}
	expect := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s spans:\n got %v\nwant %v", what, got, want)
		}
	}
	head := []string{"request.decode/scan options=imported", "key/"}

	srv1 := server.New(server.Config{Service: core.ServiceConfig{CacheDir: dir}})
	t.Cleanup(func() { closeNow(t, srv1) })
	handlerCompile(t, srv1, body)
	expect("fresh compile", newest(srv1), append(head[:2:2],
		"cache.memory/miss", "cache.disk/miss", "graph.import/", "admission.wait/", "compile/", "artifact.encode/", "response.write/"))
	mapperSpans(t, handlerTraces(t, srv1).Recent[0])
	handlerCompile(t, srv1, body)
	expect("table hit", newest(srv1), []string{"request.decode/scan options=reused", "key/", "cache.memory/hit", "response.write/"})
	closeNow(t, srv1)

	srv2, _ := startServer(t, server.Config{Service: core.ServiceConfig{CacheDir: dir}})
	handlerCompile(t, srv2, body)
	expect("disk hit", newest(srv2), append(head[:2:2], "cache.memory/miss", "cache.disk/hit", "response.write/"))
}
