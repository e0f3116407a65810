// Package server is the network face of the compiler: an HTTP/JSON API
// over core.Service, shaped for heavy traffic rather than demos. A request
// is a CompileRequest (graph spec + topology spec + normalized options);
// a response is the versioned artifact encoding — the wire format IS the
// artifact format, and the bytes a request is answered with are the bytes
// the service's table, its persistent tiers and its fleet peers hold for
// that key.
//
// The handler decodes the request into reused memory (decode.go), derives
// its key once from the wire form, and hands the key and the means to build
// the graph to core.Service, which owns the rest of the path: a known key
// is answered from the table or a persistent tier with the stored bytes,
// concurrent duplicates join one run, and only a run that will execute the
// pipeline builds the graph and queues for one of the service's
// MaxConcurrent slots — beyond its MaxQueue waiters the server sheds load
// with 429 + Retry-After instead of collapsing.
//
// In fleet mode (Config.Fleet) N servers act as one cache: a
// consistent-hash ring assigns every key an owner, and non-owned requests
// are answered from local caches or proxied one hop to the owner — see
// fleet.go and DESIGN.md S17.
//
// /healthz reports liveness (503 while draining) and, in a fleet,
// per-peer reachability; /metrics is the node's one read-out of its
// counters. See DESIGN.md S14 and S19.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/fleet"
	"streammap/internal/obs"
)

// Config tunes a compile server.
type Config struct {
	// Service configures the underlying compile service, and through it the
	// node: its MaxConcurrent pipeline slots (default GOMAXPROCS; hits and
	// coalesced joiners take none) and MaxQueue waiters (default
	// 4*MaxConcurrent, beyond which requests are shed with 429) are the
	// node's admission bound; its Faults injector also drives the peer
	// transport and the membership clock (DESIGN.md S18); its Logger
	// receives the server's records too, each stamped with the request's
	// trace ID (nil discards, DESIGN.md S19). Metrics is always the
	// server's registry, so one /metrics covers the node.
	Service core.ServiceConfig
	// RequestTimeout caps one request's wall-clock from admission to
	// artifact (default 60s). Expiry answers 504; the underlying
	// compilation still completes and populates the cache (core.Service
	// detaches it), so a retry hits.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint sent with 429 (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// CompileWorkers bounds each compilation's internal worker pool
	// (Options.Workers, default GOMAXPROCS). Requests cannot set it: the
	// server owns its parallelism budget.
	CompileWorkers int
	// Fleet, when enabled (SelfURL + at least one other peer), turns this
	// node into a member of a consistent-hash serving fleet: compile
	// requests for keys another node owns are answered from the local
	// cache when possible and otherwise proxied to the owner. See
	// DESIGN.md S17.
	Fleet fleet.Config
}

func (c Config) withDefaults() Config {
	if c.Service.MaxConcurrent <= 0 {
		c.Service.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.Service.MaxQueue <= 0 {
		c.Service.MaxQueue = 4 * c.Service.MaxConcurrent
	}
	if c.Service.Logger == nil {
		c.Service.Logger = slog.New(slog.DiscardHandler)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// Server serves compile requests over HTTP. Create with New, mount with
// Handler, and shut down with SetDraining, http.Server.Shutdown, then Close.
type Server struct {
	cfg Config
	svc *core.Service

	// Fleet state: nil membership means single-node serving. The
	// membership owns every peer's health: liveness and circuit.
	fleetM   *fleet.Membership
	peerHTTP *http.Client

	draining atomic.Bool

	// Observability: one registry and tracer per server, threaded down
	// into the service and across fleet hops. See DESIGN.md S19.
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	met    *serverMetrics

	options optionsTable
}

// New returns a compile server over a fresh core.Service. An invalid
// fleet configuration panics: it is a deployment error caught at process
// start, never a request-time condition.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The service shares the server's registry and logger so one /metrics
	// exposition and one log stream cover the whole node.
	reg := obs.NewRegistry()
	cfg.Service.Metrics = reg
	node := ""
	if cfg.Fleet.Enabled() {
		node = cfg.Fleet.SelfURL
	}
	s := &Server{
		cfg:    cfg,
		svc:    core.NewService(cfg.Service),
		reg:    reg,
		tracer: obs.NewTracer(obs.TracerConfig{Node: node}),
		log:    cfg.Service.Logger,
	}
	if cfg.Fleet.Enabled() {
		m, err := fleet.NewMembership(cfg.Fleet)
		if err != nil {
			panic(fmt.Sprintf("server: fleet config: %v", err))
		}
		s.fleetM = m
		// Peer calls ride the caller's request context for cancellation;
		// the client timeout is a backstop against a peer that accepts and
		// stalls. The fault injector's transport wrapper is identity when
		// injection is off.
		faults := cfg.Service.Faults
		s.peerHTTP = &http.Client{
			Timeout:   cfg.RequestTimeout,
			Transport: faults.Transport(nil),
		}
		if faults != nil {
			// Chaos tier: every cooldown decision reads a skewed clock.
			s.fleetM.SetClock(faults.Clock(nil))
		}
		s.fleetM.SetLogger(s.log)
	}
	s.met = newServerMetrics(s)
	return s
}

// Service exposes the underlying compile service (tests and embedders).
func (s *Server) Service() *core.Service { return s.svc }

// SetDraining flips the drain flag: while set, /healthz answers 503 so
// load balancers stop routing here, and new compile requests are refused
// with 503 — all but a peer's forwarded compile that this node can answer
// from its table or tiers, which it serves without compiling. In-flight
// requests are unaffected — pair with http.Server.Shutdown, which already
// waits for them.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close is the last step of a shutdown, after the listener has stopped
// handing it requests: it closes the service, waiting — until ctx ends —
// for compilations that outlived their request and for artifacts still on
// their way to the persistent tiers, and logs what was drained or
// abandoned.
func (s *Server) Close(ctx context.Context) error {
	s.SetDraining(true)
	pending := s.svc.Pending()
	if err := s.svc.Close(ctx); err != nil {
		s.log.Warn("background work abandoned at shutdown", "pending", s.svc.Pending(), "err", err)
		return err
	}
	s.log.Info("background work drained", "pending", pending)
	return nil
}

// Handler returns the server's routes:
//
//	POST /v1/compile    CompileRequest -> encoded artifact
//	POST /v1/remap      RemapRequest -> encoded artifact for the degraded machine
//	GET  /healthz       liveness (503 while draining; fleet peer states)
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/traces  retained request traces (recent + slowest)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.traced("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/remap", s.traced("remap", s.handleRemap))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return mux
}

// handleHealthz reports this node's serving state. Single-node: "ok" or
// (503) "draining". In a fleet the body also carries per-peer
// reachability, and an unreachable or draining peer degrades the status
// to "degraded" — still 200: this node serves fine, the fleet is just
// short-handed. Only draining is a 503, because only draining means
// "stop routing here".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok"}
	if s.draining.Load() {
		h.Status = "draining"
	}
	if s.fleetM != nil && r.Header.Get(headerProbe) == "" {
		h.Peers = s.probePeers(r.Context())
		if h.Status == "ok" {
			for _, p := range h.Peers {
				if p.State != "ok" {
					h.Status = "degraded"
					break
				}
			}
		}
	}
	status := http.StatusOK
	if h.Status == "draining" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	forwarded := r.Header.Get(headerForwarded) != ""
	if forwarded {
		s.met.forwarded.Inc()
	}
	draining := s.draining.Load()
	if draining && !forwarded {
		s.fail(w, http.StatusServiceUnavailable, errDraining)
		return
	}

	// The body is buffered rather than stream-decoded: a request this
	// node does not own may need to travel on, verbatim, to the key's
	// owner. Buffer and decoded request are the previous request's memory,
	// and go back to the pool unless something that outlives this handler
	// was handed them (call.shared).
	call := callPool.Get().(*compileCall)
	defer call.release()
	call.table = &s.options
	_, span := obs.StartSpan(r.Context(), "request.decode")
	how, err := call.decode(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else if call.known == nil {
		call.known, err = s.options.add(call, how)
	} else {
		how = byTable
	}
	span.SetNote(how)
	span.End()
	if how == byFallback {
		s.met.decodeFallback.Inc()
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	opts := call.known.opts
	opts.Workers = s.cfg.CompileWorkers
	// The request's one identity, derived from its wire form and passed
	// down: it routes the request through the ring and names it in the
	// service's table and the persistent tiers. No graph is built for it,
	// and none is validated: a spec that keys to bytes the node holds is one
	// that was built and compiled before, and any other is checked where
	// the service builds it (call.graph).
	_, span = obs.StartSpan(r.Context(), "key")
	hash := core.HashOfSpec(&call.req.Graph, call.known.key)
	span.End()

	if draining {
		// A peer's forwarded request: answered from what this node holds,
		// never compiled — the proxying node compiles it instead.
		body, ok := s.svc.EncodedByHash(r.Context(), hash)
		if !ok {
			s.fail(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		s.respond(w, r, forwarded, body, nil)
		return
	}

	// Fleet routing: a request for a key another node owns is served from
	// the local cache or proxied to the owner — unless it was already
	// forwarded once (one hop, never a cycle).
	if s.fleetM != nil && !forwarded {
		if owner := s.fleetM.Owner(hash); owner != s.fleetM.Self() {
			if s.routeToOwner(w, r, owner, hash, call) {
				return
			}
			// Owner unavailable: serve locally rather than fail. The result
			// still lands in the shared store, so the fleet converges.
			s.met.fallbacks.Inc()
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "owner unavailable; compiling locally",
				slog.String("owner", owner), obs.TraceAttr(r.Context()))
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, err := s.svc.Encoded(ctx, hash, call.graph, opts)
	if ctx.Err() != nil {
		// Encoded may have returned ahead of a run this request leads, which
		// is detached and will still import from call.
		call.shared = true
	}
	s.respond(w, r, forwarded, body, err)
}

// handleRemap re-targets a previously compiled artifact onto a degraded
// topology. It rides the same admission bound and coalescing as compile —
// a fleet event takes out a device under many clients at once, and their
// identical (artifact, degradation) requests must cost one remap, not a
// stampede — but bypasses the compile cache: the artifact is the input,
// not a cache key.
func (s *Server) handleRemap(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, errDraining)
		return
	}

	var req RemapRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	a, err := artifact.Decode(req.Artifact)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decoding artifact: %w", err))
		return
	}
	// Degrading up front validates the event against the artifact's own
	// topology (a stale picture of the machine is the client's error, not
	// the server's) and hands Remap the survival map for its warm start.
	degraded, gpuMap, err := driver.Degrade(a, req.Degradation)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	key, err := remapKey(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	out, err := s.svc.Flight(ctx, key, func(ctx context.Context) ([]byte, error) {
		c, err := driver.Remap(ctx, a, degraded, driver.RemapOptions{Workers: s.cfg.CompileWorkers, GPUMap: gpuMap})
		if err != nil {
			return nil, err
		}
		return s.svc.Encode(ctx, c)
	})
	s.respond(w, r, false, out, err)
}

// respond answers one compile or remap request with the service's verdict
// and counts a rejection or an error. Service errors map to
// statuses: a graph the service could not build from the request is 400
// like any other malformed input, a full queue is 429 + Retry-After, the
// request deadline 504, a closing service or a cancelled request 503
// (retryable — a compilation that outlives its request still fills the
// cache), anything else 500.
// forwarded marks a request a peer proxied here: the 200 body is stamped
// with headerContentHash so the proxying node can verify the relay.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, forwarded bool, body []byte, err error) {
	status := http.StatusOK
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		if forwarded {
			w.Header().Set(headerContentHash, contentHash(body))
		}
	case r.Context().Err() != nil:
		return // client gone; nothing useful to write
	case errors.As(err, new(importError)):
		status = http.StatusBadRequest
	case errors.Is(err, core.ErrBusy):
		status = http.StatusTooManyRequests
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		err = fmt.Errorf("compile queue full (%d in flight, %d queued)", s.cfg.Service.MaxConcurrent, s.cfg.Service.MaxQueue)
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, core.ErrClosed):
		status = http.StatusServiceUnavailable
	default:
		status = http.StatusInternalServerError
	}
	if err != nil {
		if status != http.StatusTooManyRequests {
			s.met.errs.Inc()
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body = []byte(err.Error() + "\n")
	}
	s.writeBody(r.Context(), w, status, body)
}

// writeBody writes a response whose whole body is in hand, so its length
// is declared instead of leaving net/http to chunk it.
func (s *Server) writeBody(ctx context.Context, w http.ResponseWriter, status int, body []byte) {
	_, span := obs.StartSpan(ctx, "response.write")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
	span.End()
}

// errDraining refuses work this node will not take while it drains.
var errDraining = errors.New("server is draining")

// fail answers a request that never reached the service (malformed input,
// or work refused while draining).
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.met.errs.Inc()
	http.Error(w, err.Error(), status)
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
