package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/sdf"
)

// post answers one compile body through the server's full route (tracing
// and metrics included) without a network.
func post(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
	return rec
}

func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("server close: %v", err)
	}
}

// TestLateImportErrorsAreBadRequests: a graph is only built once the table
// and the tiers have missed, inside a run, so what ImportGraph refuses now
// surfaces from the service — and must still be the client's error: 400
// with the "importing graph:" text, never a 5xx, nothing left in the
// table, and the same again on a repeat or through the other decoder.
func TestLateImportErrorsAreBadRequests(t *testing.T) {
	canon := string(marshalRequest(t, refGraph(t)))
	sub := substituter(t, canon)
	// Two branches of one split-join with different gains: every edge joins
	// ports that exist, the balance equations have no solution.
	port := []sdf.PortSpec{{Pop: 1, Peek: 1}}
	unbalanced := NewRequest(refGraph(t), refOpts())
	unbalanced.Graph = sdf.GraphSpec{
		Name: "unbalanced",
		Nodes: []sdf.NodeSpec{
			{Filter: sdf.FilterSpec{Name: "src", Kind: int(sdf.KindSource), Ops: 1, Outputs: []int{1}}},
			{Filter: sdf.FilterSpec{Name: "split", Kind: int(sdf.KindSplitter), Ops: 1, Inputs: port, Outputs: []int{1, 1}}},
			{Filter: sdf.FilterSpec{Name: "double", Ops: 1, Inputs: port, Outputs: []int{2}}},
			{Filter: sdf.FilterSpec{Name: "same", Ops: 1, Inputs: port, Outputs: []int{1}}},
			{Filter: sdf.FilterSpec{Name: "join", Kind: int(sdf.KindJoiner), Ops: 1, Inputs: append(port, port...), Outputs: []int{2}}},
			{Filter: sdf.FilterSpec{Name: "sink", Kind: int(sdf.KindSink), Ops: 1, Inputs: []sdf.PortSpec{{Pop: 2, Peek: 2}}}},
		},
		Edges: []sdf.EdgeSpec{
			{Src: 0, Dst: 1},
			{Src: 1, SrcPort: 0, Dst: 2},
			{Src: 1, SrcPort: 1, Dst: 3},
			{Src: 2, Dst: 4, DstPort: 0},
			{Src: 3, Dst: 4, DstPort: 1},
			{Src: 4, Dst: 5},
		},
	}
	unbalancedBody, err := json.Marshal(unbalanced)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	defer closeServer(t, s)
	posts := 0
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"out-of-range endpoint", sub(`"dst":1,`, `"dst":99,`)},
		{"negative endpoint", sub(`"src":0,`, `"src":-1,`)},
		{"missing port", sub(`"srcPort":0,"dst":1`, `"srcPort":5,"dst":1`)},
		{"missing input port", sub(`"dst":1,"dstPort":0`, `"dst":1,"dstPort":3`)},
		{"rate-inconsistent graph", unbalancedBody},
		{"negative pop", sub(`"inputs":[{"pop":6,"peek":6}]`, `"inputs":[{"pop":-6,"peek":6}]`)},
	} {
		// Twice as sent, once through json.Unmarshal, then a herd: a bad
		// body is rejected every time, alone or coalesced.
		answers := []*httptest.ResponseRecorder{post(s, tc.body), post(s, tc.body), post(s, withUnknownMember(tc.body))}
		var wg sync.WaitGroup
		herd := make([]*httptest.ResponseRecorder, 6)
		for i := range herd {
			wg.Add(1)
			go func() {
				defer wg.Done()
				herd[i] = post(s, tc.body)
			}()
		}
		wg.Wait()
		for _, rec := range append(answers, herd...) {
			posts++
			if rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), "importing graph: ") {
				t.Errorf("%s: answered %d %q, want 400 importing graph: ...", tc.name, rec.Code, rec.Body.String())
			}
		}
		if st := s.svc.Stats(); st.Entries != 0 || st.Misses != 0 || st.Encodes != 0 {
			t.Errorf("%s: a rejected graph left a table entry or reached the pipeline: %+v", tc.name, st)
		}
	}
	if got := s.met.respClass["compile/4xx"].Value(); got != int64(posts) {
		t.Errorf("%d responses counted 4xx, want all %d", got, posts)
	}
	if got := s.met.respClass["compile/5xx"].Value(); got != 0 {
		t.Errorf("%d rejected graphs counted as server errors", got)
	}
	if rec := post(s, []byte(canon)); rec.Code != http.StatusOK {
		t.Errorf("the valid graph the bad ones were cut from answers %d: %s", rec.Code, rec.Body)
	}
}

// gatedStore is a shared tier that holds every probe until its gate opens,
// and never has anything: the stall a slow filesystem puts in front of a
// run.
type gatedStore struct {
	gate    chan struct{}
	probing chan struct{} // one token per probe that has started
}

func (g *gatedStore) Get(string) ([]byte, error) {
	g.probing <- struct{}{}
	<-g.gate
	return nil, nil
}
func (g *gatedStore) Put(string, []byte) error { return nil }
func (g *gatedStore) Quarantine(string) error  { return nil }

// TestAbandonedRunKeepsItsRequest: a request that times out while its run
// is still probing a tier has returned before the run builds the graph
// from the request's decoded spec. That memory must stay the run's — not
// go back to the pool for the hits arriving meanwhile to decode into — and
// the run must still fill the table. Run under -race.
func TestAbandonedRunKeepsItsRequest(t *testing.T) {
	// Buffered for the repeat's probe too, which nobody waits for.
	store := &gatedStore{gate: make(chan struct{}), probing: make(chan struct{}, 2)}
	s := New(Config{RequestTimeout: 30 * time.Millisecond, Service: core.ServiceConfig{Shared: store}})
	defer closeServer(t, s)

	// The hot key is ingested rather than compiled (no compile fits this
	// server's request timeout under the race detector): the handler serves
	// whatever bytes the table holds.
	hotGraph := synthGraph(t, 21, 300)
	hot := marshalRequest(t, hotGraph)
	hash, err := core.HashOf(hotGraph, refOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Service().Ingest(hash, []byte(`{"hot":true}`))
	coldGraph := synthGraph(t, 22, 120)
	cold := marshalRequest(t, coldGraph)

	hit := func() bool {
		rec := post(s, hot)
		if rec.Code != http.StatusOK {
			t.Errorf("hot key answered %d: %s", rec.Code, rec.Body)
		}
		return rec.Code == http.StatusOK
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	stopHits := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer stopHits()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && hit() {
			}
		}()
	}

	if rec := post(s, cold); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("a request whose run is stalled answered %d, want 504", rec.Code)
	}
	<-store.probing // the run is inside the tier, the graph not yet built
	// Let hits recycle whatever the handler released, then let the run go on
	// to import from what it must not have.
	for i := 0; i < 200 && hit(); i++ {
	}
	close(store.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Service().Flush(ctx); err != nil {
		t.Fatal(err)
	}
	stopHits()

	st := s.svc.Stats()
	if st.Misses != 1 {
		t.Fatalf("the abandoned run compiled %d times, want once: %+v", st.Misses, st)
	}
	rec := post(s, cold)
	if rec.Code != http.StatusOK {
		t.Fatalf("the repeat answered %d, want a hit on what the abandoned run left: %s", rec.Code, rec.Body)
	}
	if after := s.svc.Stats(); after.Misses != 1 || after.Hits != st.Hits+1 {
		t.Errorf("the repeat was not a table hit: %+v -> %+v", st, after)
	}
	// What the run compiled is the graph the request named, not whatever a
	// later request decoded into the same memory.
	a, err := artifact.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != coldGraph.Fingerprint() {
		t.Errorf("the abandoned run compiled graph %016x (%s), the request was for %016x (%s)",
			a.Fingerprint, a.Graph.Name, coldGraph.Fingerprint(), coldGraph.Name)
	}
}

// discard is a ResponseWriter that drops the body, so a measurement of the
// handler does not count a recorder's copy of a 200 KB artifact.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// hitFixture is a server with one large compiled key, and that key's body.
func hitFixture(t testing.TB) (*Server, []byte) {
	t.Helper()
	body := marshalRequest(t, synthGraph(t, 5, 400))
	s := New(Config{})
	if rec := post(s, body); rec.Code != http.StatusOK {
		t.Fatalf("warm-up answered %d: %s", rec.Code, rec.Body)
	}
	return s, body
}

// serveHit answers body once, through the route wrapper and the response
// write, reading the request from a reader the caller rewinds.
func serveHit(h http.Handler, rd *bytes.Reader, body []byte, w *discard) {
	rd.Reset(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", rd)
	clear(w.h)
	h.ServeHTTP(w, req)
}

// TestMemoryHitGarbageBudget pins what a table hit on a 400-filter request
// leaves for the collector, handler entry through response write: the
// request is decoded into reused memory and no graph is built, so it is a
// small multiple of the options and the trace — it was ~600 KB when every
// request built a graph to find its key.
func TestMemoryHitGarbageBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not stable under the race detector")
	}
	s, body := hitFixture(t)
	defer closeServer(t, s)
	h, rd, w := s.Handler(), bytes.NewReader(nil), &discard{h: http.Header{}}
	allocated := func() uint64 {
		v := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(v)
		return v[0].Value.Uint64()
	}
	const n = 200
	for i := 0; i < 20; i++ { // fill the pools
		serveHit(h, rd, body, w)
	}
	before := allocated()
	for i := 0; i < n; i++ {
		serveHit(h, rd, body, w)
	}
	perHit := (allocated() - before) / n
	t.Logf("%d bytes allocated per memory hit on a %d-byte request", perHit, len(body))
	if perHit > 100<<10 {
		t.Errorf("a memory hit allocates %d bytes, budget 100 KB", perHit)
	}
	if st := s.svc.Stats(); st.Misses != 1 || st.Hits != n+20 || s.met.decodeFallback.Value() != 0 {
		t.Errorf("the measured requests were not all scanned table hits: %+v", st)
	}
}

// BenchmarkServeHit is the serving steady state at the handler: a table
// hit on a 400-filter request, route wrapper through response write.
// Recorded before and after the spec-first hit path in
// bench_compile_baseline.json.
func BenchmarkServeHit(b *testing.B) {
	s, body := hitFixture(b)
	h, rd, w := s.Handler(), bytes.NewReader(nil), &discard{h: http.Header{}}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHit(h, rd, body, w)
	}
	b.StopTimer()
	if st := s.svc.Stats(); st.Misses != 1 {
		b.Fatalf("hits recompiled: %+v", st)
	}
}
