package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"streammap/internal/obs"
)

// Config is a node's static view of its fleet. Membership is configured,
// not discovered: every node is handed the same peer list (order
// irrelevant) and its own advertised URL, and from those each builds the
// same ring. Gossip, dynamic join and quorum are deliberately out of
// scope — at the fleet sizes a static -peers flag serves, liveness
// tracking plus a shared store covers node churn.
type Config struct {
	// SelfURL is this node's advertised base URL, e.g.
	// "http://10.0.0.3:8372". It must appear in Peers (it is added when
	// absent).
	SelfURL string
	// Peers lists every fleet member's base URL, self included.
	Peers []string
	// Replicas is the virtual-node count per member (DefaultReplicas
	// when 0).
	Replicas int
	// ProbeTimeout bounds one per-peer /healthz probe (default 500ms).
	ProbeTimeout time.Duration
	// DownCooldown is how long a peer whose circuit opened stays out of
	// the ring and refused before it rejoins and is probed (default 2s).
	DownCooldown time.Duration
	// BreakerFailures is how many consecutive failed peer operations open
	// a peer's circuit (default 3). One flaky response must not rebuild
	// the ring.
	BreakerFailures int
	// PeerRetries is the extra attempts granted to one proxied request
	// after its first failure (default 1; negative disables retries).
	PeerRetries int
	// RetryBackoff is the base delay between those attempts; the serving
	// layer sleeps a decorrelated-jitter multiple of it (default 10ms).
	RetryBackoff time.Duration
}

// Enabled reports whether the config describes a real fleet: a self URL
// plus at least one other peer.
func (c Config) Enabled() bool {
	if normURL(c.SelfURL) == "" {
		return false
	}
	for _, p := range c.Peers {
		if p := normURL(p); p != "" && p != normURL(c.SelfURL) {
			return true
		}
	}
	return false
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 2 * time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.PeerRetries == 0 {
		c.PeerRetries = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	return c
}

// normURL canonicalizes a member URL so "http://a:1/" and "http://a:1"
// name one node.
func normURL(u string) string { return strings.TrimRight(strings.TrimSpace(u), "/") }

// Membership is the one record of which members of a static fleet are
// routed to, and of each peer's health. The full set never changes; each
// peer has a circuit:
//
//	closed    — requests flow; consecutive failures are counted, and the
//	            BreakerFailures-th opens the circuit.
//	open      — the peer is out of the ring and its requests are refused
//	            locally (no dial, no timeout burn) for DownCooldown.
//	half-open — once the cooldown lapses the peer is back in the ring and
//	            exactly one probe request is let through; success closes
//	            the circuit, failure reopens it for a fresh cooldown.
//
// Only transport-level failures are fed to Failure. A peer that answers
// HTTP with bytes that fail verification has a data problem, not a
// liveness one, and routing around it would churn the keyspace without
// fixing anything. A healthy "I don't have it" (404) is a Success.
//
// Every alive-set transition rebuilds the ring; the keyspace fraction
// that changed owners is accumulated (scaled to per-mille) as the
// RingMoves counter, so /metrics can show how much of the keyspace
// churned, not just how often.
type Membership struct {
	cfg Config

	mu     sync.Mutex
	ring   *Ring
	health map[string]*peerHealth
	opens  int64 // circuit-open transitions, reopens included
	// ringMoves is the accumulated moved keyspace, in 1/1000ths.
	ringMoves int64

	// now is the clock seam (SetClock); every decision reads it once.
	now func() time.Time
	// log receives circuit transitions (opened, cooldown lapsed); set via
	// SetLogger, defaults to discard.
	log *slog.Logger
}

// peerHealth is one peer's circuit. The circuit is open while fails is at
// least BreakerFailures. downUntil is the end of the latest cooldown: a
// peer other than self with a non-zero downUntil is out of the ring, and
// the first ring read at or after that instant zeroes it and routes to
// the peer again.
type peerHealth struct {
	fails     int
	downUntil time.Time
	probing   bool // the one half-open probe is in flight
}

// NewMembership validates cfg and returns the node's membership view.
func NewMembership(cfg Config) (*Membership, error) {
	cfg = cfg.withDefaults()
	cfg.SelfURL = normURL(cfg.SelfURL)
	if cfg.SelfURL == "" {
		return nil, fmt.Errorf("fleet: SelfURL is required")
	}
	peers := make([]string, 0, len(cfg.Peers)+1)
	seenSelf := false
	for _, p := range cfg.Peers {
		p = normURL(p)
		if p == "" {
			continue
		}
		if p == cfg.SelfURL {
			seenSelf = true
		}
		peers = append(peers, p)
	}
	if !seenSelf {
		peers = append(peers, cfg.SelfURL)
	}
	sort.Strings(peers)
	cfg.Peers = slices.Compact(peers)
	m := &Membership{
		cfg:    cfg,
		health: map[string]*peerHealth{},
		now:    time.Now,
		log:    slog.New(slog.DiscardHandler),
	}
	m.ring = NewRing(cfg.Peers, cfg.Replicas)
	return m, nil
}

// SetLogger routes circuit transition records (circuit opened, cooldown
// lapsed) to l. Nil restores the discard default.
func (m *Membership) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	m.mu.Lock()
	m.log = l
	m.mu.Unlock()
}

// Config returns the (normalized, defaulted) configuration the
// membership was built from.
func (m *Membership) Config() Config { return m.cfg }

// SetClock replaces the membership's time source — the one clock every
// cooldown decision reads; the chaos tier skews it and tests pin it. Nil
// restores time.Now.
func (m *Membership) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// Self returns this node's normalized URL.
func (m *Membership) Self() string { return m.cfg.SelfURL }

// Peers returns every other member's URL (full set, regardless of
// liveness), sorted.
func (m *Membership) Peers() []string {
	peers := make([]string, 0, len(m.cfg.Peers))
	for _, p := range m.cfg.Peers {
		if p != m.cfg.SelfURL {
			peers = append(peers, p)
		}
	}
	return peers
}

// Owner returns the member currently owning key, after routing to any
// peer again whose cooldown has lapsed. Self is always a ring member: a
// node never routes away its own keys just because its peers think poorly
// of it.
func (m *Membership) Owner(key string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reviveLocked()
	return m.ring.Owner(key)
}

// Alive returns the members currently routed to, sorted.
func (m *Membership) Alive() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reviveLocked()
	return m.ring.Nodes()
}

// Allow reports whether a request to url may proceed. An open circuit
// whose cooldown has lapsed admits exactly one half-open probe; callers
// must follow every allowed request with Success or Failure so the probe
// slot is released.
func (m *Membership) Allow(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peerLocked(normURL(url))
	if p.fails < m.cfg.BreakerFailures {
		return true
	}
	if p.probing || m.now().Before(p.downUntil) {
		return false
	}
	p.probing = true // half-open: this caller is the probe
	return true
}

// Success records a successful request to url, closing its circuit. A
// peer still inside its cooldown stays out of the ring until it lapses.
func (m *Membership) Success(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peerLocked(normURL(url))
	p.fails = 0
	p.probing = false
}

// Failure records a failed request to url. It reports whether this
// failure opened the circuit (or reopened it, from a failed half-open
// probe); that transition starts a fresh cooldown, takes the peer out of
// the ring and is logged against ctx's trace. Self never leaves the ring.
func (m *Membership) Failure(ctx context.Context, url string) (opened bool) {
	url = normURL(url)
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peerLocked(url)
	p.fails++
	if !p.probing && p.fails != m.cfg.BreakerFailures {
		return false
	}
	p.probing = false
	inRing := p.downUntil.IsZero() && url != m.cfg.SelfURL
	p.downUntil = m.now().Add(m.cfg.DownCooldown)
	m.opens++
	if inRing {
		m.rebuildLocked()
	}
	m.log.LogAttrs(ctx, slog.LevelWarn, "peer circuit opened; routing around it",
		slog.String("peer", url), slog.Duration("cooldown", m.cfg.DownCooldown), obs.TraceAttr(ctx))
	return true
}

// Opens returns how many times any circuit opened, reopens from a failed
// half-open probe included.
func (m *Membership) Opens() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.opens
}

// RingMoves returns the accumulated keyspace movement over every
// membership transition so far, in 1/1000ths of the keyspace. A single
// node leaving a 3-node ring adds ~333; its revival adds ~333 more.
func (m *Membership) RingMoves() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ringMoves
}

// peerLocked returns the health record of the peer at normalized url.
func (m *Membership) peerLocked(url string) *peerHealth {
	p, ok := m.health[url]
	if !ok {
		p = &peerHealth{}
		m.health[url] = p
	}
	return p
}

// reviveLocked routes to every peer again whose cooldown has lapsed —
// the instant Allow starts admitting its probe — and rebuilds the ring
// when any came back.
func (m *Membership) reviveLocked() {
	changed := false
	now := m.now()
	for url, p := range m.health {
		if url != m.cfg.SelfURL && !p.downUntil.IsZero() && !now.Before(p.downUntil) {
			p.downUntil = time.Time{}
			changed = true
			m.log.Info("peer cooldown lapsed; routing to it again", slog.String("peer", url))
		}
	}
	if changed {
		m.rebuildLocked()
	}
}

// rebuildLocked recomputes the ring over the alive set and accumulates
// the moved keyspace fraction.
func (m *Membership) rebuildLocked() {
	alive := make([]string, 0, len(m.cfg.Peers))
	for _, p := range m.cfg.Peers {
		if h := m.health[p]; p == m.cfg.SelfURL || h == nil || h.downUntil.IsZero() {
			alive = append(alive, p)
		}
	}
	next := NewRing(alive, m.cfg.Replicas)
	m.ringMoves += int64(m.ring.MovedFraction(next) * 1000)
	m.ring = next
}
