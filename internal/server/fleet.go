package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"streammap/internal/obs"
)

// Fleet serving: how N servers act as one cache. Ownership of a compile
// key is a pure function of the consistent-hash ring (fleet.Ring), so
// every node routes identically with no coordination. A node receiving a
// request for a key it does not own tries, in order:
//
//  1. its own caches — a hot key that was proxied before is served
//     locally, which is how hot keys replicate beyond their owner;
//  2. a one-hop proxy of the full compile request to the owner, marked
//     with headerForwarded so it can never cycle; the owner answers from
//     its table or tiers or compiles (and persists to the shared store),
//     and this node verifies and caches the response;
//  3. local fallback: the owner is unavailable — its transport failures
//     feed its circuit in the membership (bounded retries with
//     decorrelated-jitter backoff first), an opening circuit routes around
//     it for a cooldown, a draining owner answers 503 for a key it would
//     have to compile, and this node compiles the key itself. Degraded
//     means slower, never unavailable.
//
// See DESIGN.md S17.

const (
	// headerForwarded marks a request proxied by a fleet peer (value: the
	// proxying node's URL). Forwarded requests are always served locally —
	// one hop, never a cycle.
	headerForwarded = "X-Streammap-Forwarded"
	// headerContentHash carries the SHA-256 of the artifact body of a
	// forwarded compile's response. It is mandatory: the proxying peer
	// accepts the bytes on it alone, and treats a wrong or absent hash as
	// peerBadBytes.
	headerContentHash = "X-Streammap-Content-Hash"
	// headerProbe marks a /healthz request from a fleet peer. A probed
	// node answers its own state without probing ITS peers — otherwise
	// every probe fans out into a fleet-wide probe storm whose recursion
	// makes perfectly healthy peers miss each other's probe budgets.
	headerProbe = "X-Streammap-Probe"
)

// contentHash is the transport-integrity hash of an artifact body.
func contentHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// routeToOwner answers a compile request whose key belongs to owner. It
// reports whether the response was written; false means the owner could
// not serve it (unreachable, open circuit, draining, bad bytes) and the
// caller should serve locally.
//
// Failure discipline (see DESIGN.md S18): transport failures are retried
// within a bounded budget with decorrelated-jitter backoff (retryPeer);
// exhausting the budget feeds the owner's circuit, and only an opening
// circuit takes the owner out of the ring — one flaky response never
// rebuilds the ring. Integrity failures (wrong or absent content hash) are
// counted as peerBadBytes and fall through; they never mark the owner
// down. The proxy runs under one context deadline derived from the
// request's timeout budget.
func (s *Server) routeToOwner(w http.ResponseWriter, r *http.Request, owner, hash string, call *compileCall) bool {
	// Local read-through: a previously proxied hot key is served from this
	// node's own caches, owner untouched.
	lctx, localSpan := obs.StartSpan(r.Context(), "fleet.local")
	if body, ok := s.svc.EncodedByHash(lctx, hash); ok {
		localSpan.SetNote("hit")
		localSpan.End()
		s.met.localHits.Inc()
		s.writeArtifact(r.Context(), w, body)
		return true
	}
	localSpan.SetNote("miss")
	localSpan.End()

	// Open circuit: we already know the owner is unhealthy — skip the
	// dial (and its timeout burn) and serve locally at once.
	if !s.fleetM.Allow(owner) {
		_, span := obs.StartSpan(r.Context(), "fleet.breaker")
		span.Notef("open: skipping %s", owner)
		span.End()
		s.met.breakerSkips.Inc()
		return false
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	pctx, proxySpan := obs.StartSpan(ctx, "fleet.proxy")
	proxySpan.SetNote(owner)
	handled := s.proxyCompile(w, r.WithContext(pctx), owner, hash, call)
	proxySpan.End()
	return handled
}

// retryPeer runs attempt until it reaches owner over HTTP and reports
// whether it did. A transport failure is retried within the fleet's
// PeerRetries budget, each retry after one decorrelated-jitter backoff —
// uniform in [RetryBackoff, 3*RetryBackoff), so the retries of requests
// that failed together do not arrive together. A failure that uses up the budget, or a ctx that ends
// during a backoff, is fed to the owner's circuit.
func (s *Server) retryPeer(ctx context.Context, owner string, attempt func() bool) bool {
	cfg := s.fleetM.Config()
	for n := 0; !attempt(); n++ {
		if n < cfg.PeerRetries {
			select {
			case <-time.After(cfg.RetryBackoff + time.Duration(rand.Int63n(int64(2*cfg.RetryBackoff)))):
				s.met.peerRetries.Inc()
				continue
			case <-ctx.Done():
			}
		}
		s.fleetM.Failure(ctx, owner)
		return false
	}
	return true
}

// writeArtifact writes a cache-served artifact body (see writeBody).
func (s *Server) writeArtifact(ctx context.Context, w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	s.writeBody(ctx, w, http.StatusOK, body)
}

// proxyCompile forwards the verbatim compile request to the owner and
// relays its response, caching a 200 body locally so the next request for
// this key is a local hit. Transport failures are retried (retryPeer);
// exhausting the budget feeds the owner's circuit, as does a response
// stream that dies mid-read. A 200 body is verified against the
// content hash the owner stamps on forwarded responses before it reaches
// the client: a corrupted relay is peerBadBytes plus a local fallback,
// never a served poison. A 503 (the owner is draining or closing) is not
// relayed either: the key is served here. Reports false (nothing written)
// when the caller should serve locally.
func (s *Server) proxyCompile(w http.ResponseWriter, r *http.Request, owner, hash string, call *compileCall) bool {
	// A transport may still be reading a request body after its response
	// has arrived, so this one is never reused.
	call.shared = true
	var resp *http.Response
	if !s.retryPeer(r.Context(), owner, func() bool {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/compile", bytes.NewReader(call.body))
		if err != nil {
			return true // never sent: no liveness signal, and resp stays nil
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(headerForwarded, s.fleetM.Self())
		if hv := obs.HeaderValue(r.Context()); hv != "" {
			// The owner adopts this trace, so /debug/traces on both nodes
			// shows one trace ID for the proxied request.
			req.Header.Set(obs.TraceHeader, hv)
		}
		resp, err = s.peerHTTP.Do(req)
		return err == nil
	}) || resp == nil {
		return false
	}
	defer resp.Body.Close()
	body, err := readBounded(resp.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		// The owner accepted the request and then the stream died — likely
		// mid-compile. Retrying a possibly expensive compile from scratch is
		// worse than falling back locally (the service coalesces).
		s.fleetM.Failure(r.Context(), owner)
		return false
	}
	s.fleetM.Success(owner)
	switch resp.StatusCode {
	case http.StatusOK:
		// The hash is the whole check: the bytes are not decoded on this
		// side of the fleet. A mismatch is never a liveness signal.
		if resp.Header.Get(headerContentHash) != contentHash(body) {
			s.met.peerBadBytes.Inc()
			return false
		}
		// Replicate: the next request for this key is a local hit.
		s.svc.Ingest(hash, body)
	case http.StatusServiceUnavailable:
		return false
	}
	s.met.proxied.Inc()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	s.writeBody(r.Context(), w, resp.StatusCode, body)
	return true
}

// readBounded reads a peer response defensively: a body exceeding the
// server's own request limit is an error, never an allocation.
func readBounded(r io.Reader, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > max {
		return nil, fmt.Errorf("fleet: peer response exceeds %d-byte body limit", max)
	}
	return data, nil
}

// PeerState is one peer's reachability as seen from this node, reported
// by /healthz.
type PeerState struct {
	URL string `json:"url"`
	// State is "ok" (answered 200), "draining" (answered, refusing new
	// work) or "unreachable" (no HTTP answer within the probe budget).
	State string `json:"state"`
}

// Health is the /healthz payload. Status is "ok", "degraded" (this node
// serves, but a peer is draining or unreachable — still 200) or
// "draining" (503: stop routing here).
type Health struct {
	Status string      `json:"status"`
	Peers  []PeerState `json:"peers,omitempty"`
}

// probePeers checks every configured peer's /healthz concurrently, each
// under the fleet probe budget. Probes are on-demand: /healthz is not a
// hot path, and a point-in-time answer beats a stale cached one.
func (s *Server) probePeers(ctx context.Context) []PeerState {
	peers := s.fleetM.Peers()
	states := make([]PeerState, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[i] = PeerState{URL: p, State: s.probeOne(ctx, p)}
		}()
	}
	wg.Wait()
	return states
}

func (s *Server) probeOne(ctx context.Context, peer string) string {
	ctx, cancel := context.WithTimeout(ctx, s.fleetM.Config().ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return "unreachable"
	}
	req.Header.Set(headerProbe, s.fleetM.Self())
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return "unreachable"
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return "ok"
	}
	return "draining"
}
