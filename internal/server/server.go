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
// pipeline builds the graph and queues for one of the MaxInFlight slots —
// beyond MaxQueue waiters the server sheds load with 429 + Retry-After
// instead of collapsing.
//
// In fleet mode (Config.Fleet) N servers act as one cache: a
// consistent-hash ring assigns every key an owner, non-owned requests
// are answered from local caches, fetched from the owner as raw
// artifact bytes, proxied one hop, or redirected — see fleet.go and
// DESIGN.md S17.
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
	"streammap/internal/faultinject"
	"streammap/internal/fleet"
	"streammap/internal/obs"
)

// Config tunes a compile server.
type Config struct {
	// Service configures the underlying compile service. Its MaxConcurrent
	// and MaxQueue are set from MaxInFlight and MaxQueue below.
	Service core.ServiceConfig
	// MaxInFlight bounds the pipeline runs in progress (default
	// GOMAXPROCS). Hits and coalesced joiners don't consume slots.
	MaxInFlight int
	// MaxQueue bounds runs waiting for a slot; beyond it requests are
	// rejected with 429 (default 4*MaxInFlight).
	MaxQueue int
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
	// cache when possible and otherwise fetched from or proxied to the
	// owner; /v1/artifact/{key} serves raw artifact bytes to peers. See
	// DESIGN.md S17.
	Fleet fleet.Config
	// Faults, when non-nil, threads deterministic fault injection through
	// the peer transport (refusals, latency, corrupted/truncated bodies)
	// and the membership/breaker clocks (skew), and is passed down to the
	// service's disk tier. Chaos-tier testing only; nil in production,
	// where every seam is a no-op. See DESIGN.md S18.
	Faults *faultinject.Injector
	// Logger receives the server's structured log records (request debug
	// lines, fleet transitions, cache quarantines), each stamped with the
	// request's trace ID. Nil discards. See DESIGN.md S19.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
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

	// Fleet state: nil membership means single-node serving.
	fleetM   *fleet.Membership
	breaker  *fleet.Breaker
	peerHTTP *http.Client

	draining atomic.Bool

	// Observability: one registry and tracer per server, threaded down
	// into the service and across fleet hops. See DESIGN.md S19.
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	met    *serverMetrics
}

// New returns a compile server over a fresh core.Service. An invalid
// fleet configuration panics: it is a deployment error caught at process
// start, never a request-time condition.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Service.Faults == nil {
		// One injector drives every seam in the node unless the service was
		// handed its own.
		cfg.Service.Faults = cfg.Faults
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	reg := obs.NewRegistry()
	node := ""
	if cfg.Fleet.Enabled() {
		node = cfg.Fleet.SelfURL
	}
	// The service shares the server's registry and logger so one /metrics
	// exposition and one log stream cover the whole node.
	if cfg.Service.Metrics == nil {
		cfg.Service.Metrics = reg
	}
	if cfg.Service.Logger == nil {
		cfg.Service.Logger = log
	}
	// One admission bound for the node: the service owns the slots.
	cfg.Service.MaxConcurrent, cfg.Service.MaxQueue = cfg.MaxInFlight, cfg.MaxQueue
	s := &Server{
		cfg:    cfg,
		svc:    core.NewService(cfg.Service),
		reg:    reg,
		tracer: obs.NewTracer(obs.TracerConfig{Node: node}),
		log:    log,
	}
	if cfg.Fleet.Enabled() {
		m, err := fleet.NewMembership(cfg.Fleet)
		if err != nil {
			panic(fmt.Sprintf("server: fleet config: %v", err))
		}
		s.fleetM = m
		s.breaker = fleet.NewBreaker(fleet.BreakerConfig{
			Failures: cfg.Fleet.BreakerFailures,
			Cooldown: m.Config().DownCooldown,
			Retries:  cfg.Fleet.PeerRetries,
			Backoff:  cfg.Fleet.RetryBackoff,
		})
		// Peer calls ride the caller's request context for cancellation;
		// the client timeout is a backstop against a peer that accepts and
		// stalls. The fault injector's transport wrapper is identity when
		// injection is off.
		s.peerHTTP = &http.Client{
			Timeout:   cfg.RequestTimeout,
			Transport: cfg.Faults.Transport(nil),
		}
		if cfg.Faults != nil {
			// Chaos tier: cooldown revival on both the ring and the breaker
			// reads a skewed clock.
			s.fleetM.SetClock(cfg.Faults.Clock(nil))
			s.breaker.SetClock(cfg.Faults.Clock(nil))
		}
		s.fleetM.SetLogger(s.log)
	}
	s.met = newServerMetrics(s)
	return s
}

// Breaker exposes the per-peer circuit breaker (nil outside fleet mode) —
// tests and the chaos harness read its open count.
func (s *Server) Breaker() *fleet.Breaker { return s.breaker }

// Service exposes the underlying compile service (tests and embedders).
func (s *Server) Service() *core.Service { return s.svc }

// SetDraining flips the drain flag: while set, /healthz answers 503 so
// load balancers stop routing here, and new compile requests are refused
// with 503. In-flight requests are unaffected — pair with
// http.Server.Shutdown, which already waits for them.
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
//	POST /v1/compile         CompileRequest -> encoded artifact
//	POST /v1/remap           RemapRequest -> encoded artifact for the degraded machine
//	GET  /v1/artifact/{key}  raw encoded artifact bytes by key hash (peer fetch)
//	GET  /healthz            liveness (503 while draining; fleet peer states)
//	GET  /metrics            Prometheus text exposition
//	GET  /debug/traces       retained request traces (recent + slowest)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.traced("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/remap", s.traced("remap", s.handleRemap))
	mux.HandleFunc("GET /v1/artifact/{key}", s.traced("artifact", s.handleArtifact))
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
	if s.draining.Load() {
		s.met.errs.Inc()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}

	// The body is buffered rather than stream-decoded: a request this
	// node does not own may need to travel on, verbatim, to the key's
	// owner. Buffer and decoded request are the previous request's memory,
	// and go back to the pool unless something that outlives this handler
	// was handed them (call.shared).
	call := callPool.Get().(*compileCall)
	defer call.release()
	_, span := obs.StartSpan(r.Context(), "request.decode")
	how, err := call.decode(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	var opts driver.Options
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else if opts, err = driver.ImportOptions(call.req.Options); err != nil {
		err = fmt.Errorf("importing options: %w", err)
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
	opts.Workers = s.cfg.CompileWorkers
	// The request's one identity, derived from its wire form and passed
	// down: it routes the request through the ring and names it in the
	// service's table, the persistent tiers and the peer-fetch route. No
	// graph is built for it, and none is validated: a spec that keys to
	// bytes the node holds is one that was built and compiled before, and
	// any other is checked where the service builds it (call.graph).
	_, span = obs.StartSpan(r.Context(), "key")
	hash, err := core.HashOfSpec(&call.req.Graph, opts)
	span.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// Fleet routing: a request for a key another node owns is served from
	// the local cache, fetched from the owner, proxied, or redirected —
	// unless it was already forwarded once (one hop, never a cycle).
	if s.fleetM != nil && !forwarded {
		if owner := s.fleetM.Owner(hash); owner != s.fleetM.Self() {
			if s.routeToOwner(w, r, owner, hash, call) {
				return
			}
			// Owner unreachable: serve locally rather than fail. The result
			// still lands in the shared store, so the fleet converges.
			s.met.fallbacks.Inc()
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "owner unreachable; compiling locally",
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
		s.met.errs.Inc()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
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
		err = fmt.Errorf("compile queue full (%d in flight, %d queued)", s.cfg.MaxInFlight, s.cfg.MaxQueue)
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

// fail answers a request that never reached the service (malformed input).
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
