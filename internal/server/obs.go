package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/metrics"
	"time"

	"streammap/internal/obs"
)

// The server half of the node's observability (see DESIGN.md S19): every
// request gets a trace (GET /debug/traces) and is counted on the node's
// one registry, which GET /metrics renders. Each count is kept once, in
// its series: the request path increments it and a scrape reads it.

// serverMetrics holds the instruments the request path records into.
type serverMetrics struct {
	reqCompile *obs.Counter
	reqRemap   *obs.Counter

	durCompile *obs.Histogram
	durRemap   *obs.Histogram

	rejected *obs.Counter // requests shed with 429
	errs     *obs.Counter // requests answered with a non-429 error status

	// decodeFallback counts compile bodies the request scanner declined and
	// json.Unmarshal decoded: the share of traffic off the fast path.
	decodeFallback *obs.Counter

	// respClass counts responses by route and status class; keys are
	// "route/class" over the fixed route and class sets.
	respClass map[string]*obs.Counter

	// How this node answered requests for keys another member owns, and
	// what its peers cost it. Nil (no-ops) outside fleet mode.
	proxied, localHits, forwarded                      *obs.Counter
	fallbacks, peerBadBytes, peerRetries, breakerSkips *obs.Counter
}

var respClasses = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// newServerMetrics registers the server's metrics on s.reg. Call once
// from New, after the fleet state exists.
func newServerMetrics(s *Server) *serverMetrics {
	reg := s.reg
	m := &serverMetrics{
		reqCompile: reg.Counter("streammap_http_requests_total",
			"Requests received by route.", obs.Label{Key: "route", Value: "compile"}),
		reqRemap: reg.Counter("streammap_http_requests_total",
			"Requests received by route.", obs.Label{Key: "route", Value: "remap"}),
		durCompile: reg.Histogram("streammap_request_duration_seconds",
			"Request wall-clock by route, all outcomes.", nil, obs.Label{Key: "route", Value: "compile"}),
		durRemap: reg.Histogram("streammap_request_duration_seconds",
			"Request wall-clock by route, all outcomes.", nil, obs.Label{Key: "route", Value: "remap"}),
		rejected: reg.Counter("streammap_rejected_total", "Requests shed with 429."),
		errs:     reg.Counter("streammap_errors_total", "Requests answered with a non-429 error status."),
		decodeFallback: reg.Counter("streammap_request_decode_fallback_total",
			"Compile request bodies decoded by encoding/json because the request scanner declined them."),
		respClass: map[string]*obs.Counter{},
	}
	for _, route := range []string{"compile", "remap"} {
		for _, class := range respClasses {
			m.respClass[route+"/"+class] = reg.Counter("streammap_http_responses_total",
				"Responses written by route and status class.",
				obs.Label{Key: "route", Value: route}, obs.Label{Key: "class", Value: class})
		}
	}
	reg.GaugeFunc("streammap_draining", "1 while the node refuses new work ahead of shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	start := float64(time.Now().UnixNano()) / 1e9
	reg.GaugeFunc("process_start_time_seconds", "Start time of the process since unix epoch in seconds.",
		func() float64 { return start })

	// Garbage and collector work per request, readable from two scrapes:
	// the process totals, from runtime/metrics (no stop-the-world).
	runtimeCounter := func(name, help, sample string) {
		reg.CounterFunc(name, help, func() float64 {
			v := []metrics.Sample{{Name: sample}}
			metrics.Read(v)
			if v[0].Value.Kind() != metrics.KindUint64 {
				return 0
			}
			return float64(v[0].Value.Uint64())
		})
	}
	runtimeCounter("go_memstats_alloc_bytes_total", "Bytes allocated on the heap, freed or not.", "/gc/heap/allocs:bytes")
	runtimeCounter("go_gc_cycles_total", "Completed garbage collection cycles.", "/gc/cycles/total:gc-cycles")

	if s.fleetM != nil {
		m.proxied = reg.Counter("streammap_fleet_proxied_total", "Non-owned requests proxied to their owner.")
		m.localHits = reg.Counter("streammap_fleet_local_hits_total", "Non-owned requests served from this node's own caches.")
		m.forwarded = reg.Counter("streammap_fleet_forwarded_total", "Requests a peer proxied here.")
		m.fallbacks = reg.Counter("streammap_fleet_fallbacks_total", "Non-owned requests compiled locally: the owner was unreachable, its bytes failed their content hash, or it answered 503 (draining).")
		m.peerBadBytes = reg.Counter("streammap_fleet_peer_bad_bytes_total", "Peer responses that failed integrity verification.")
		m.peerRetries = reg.Counter("streammap_fleet_peer_retries_total", "Extra peer attempts after a first transport failure.")
		m.breakerSkips = reg.Counter("streammap_fleet_breaker_skips_total", "Non-owned requests that skipped peer I/O on an open circuit.")
		// The membership owns the rest; it is read, not copied.
		reg.CounterFunc("streammap_fleet_breaker_opens_total", "Circuit-open transitions across all peers.",
			func() float64 { return float64(s.fleetM.Opens()) })
		reg.CounterFunc("streammap_fleet_ring_moves_permille", "Accumulated keyspace fraction that changed owners, in 1/1000ths.",
			func() float64 { return float64(s.fleetM.RingMoves()) })
		reg.GaugeFunc("streammap_fleet_peers_alive", "Fleet members currently routed to.",
			func() float64 { return float64(len(s.fleetM.Alive())) })
		reg.GaugeFunc("streammap_fleet_peers_total", "Configured fleet size, self included.",
			func() float64 { return float64(len(s.fleetM.Peers()) + 1) })
	}
	return m
}

// Metrics is the in-process scrape: the registry rendered as GET /metrics
// renders it, and parsed. The load-test rigs read a killed node's frozen
// counters through it, and tests their assertions — the same bytes a
// scrape returns, so there is no second read path.
func (s *Server) Metrics() obs.Samples {
	var buf bytes.Buffer
	s.reg.WriteText(&buf)
	sm, err := obs.ParseText(buf.Bytes())
	if err != nil {
		panic(fmt.Sprintf("server: own exposition does not parse: %v", err))
	}
	return sm
}

// request increments the per-route request counter.
func (m *serverMetrics) request(route string) {
	switch route {
	case "compile":
		m.reqCompile.Inc()
	case "remap":
		m.reqRemap.Inc()
	}
}

// response records one finished request: its status class and, for the
// flight routes, its wall-clock. Status 0 (client vanished before a
// response was written) counts no class.
func (m *serverMetrics) response(route string, status int, start time.Time) {
	if c := statusClass(status); c != "" {
		m.respClass[route+"/"+c].Inc()
	}
	switch route {
	case "compile":
		m.durCompile.ObserveSince(start)
	case "remap":
		m.durRemap.ObserveSince(start)
	}
}

func statusClass(status int) string {
	if status < 100 || status > 599 {
		return ""
	}
	return respClasses[status/100-1]
}

// statusWriter records the status a handler resolved to, so the route
// wrapper can finish the request's trace and metrics without threading a
// status through every helper. An unset status after a Write means an
// implicit 200; an unset status with no Write means the client vanished
// (recorded as 0).
type statusWriter struct {
	http.ResponseWriter
	stat int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.stat == 0 {
		w.stat = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.stat == 0 {
		w.stat = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int { return w.stat }

// traced wraps a route handler with the request's whole observability:
// trace start/adopt (obs.TraceHeader), per-route request/response
// metrics, and a debug log record carrying the trace ID.
func (s *Server) traced(route string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.request(route)
		ctx, trace := s.tracer.StartRequest(r.Context(), r.Header.Get(obs.TraceHeader), route)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		trace.Finish(sw.status())
		s.met.response(route, sw.status(), start)
		if s.log.Enabled(ctx, slog.LevelDebug) {
			s.log.LogAttrs(ctx, slog.LevelDebug, "request",
				slog.String("route", route),
				slog.Int("status", sw.status()),
				slog.Duration("dur", time.Since(start)),
				obs.TraceAttr(ctx))
		}
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// handleTraces serves the retained traces: the most recent plus the
// slowest seen.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.tracer.Snapshot())
}
