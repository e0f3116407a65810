package fleet

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
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
	// Redirect answers non-owned compile requests with a 307 to the owner
	// instead of proxying server-side. Clients must opt in to following
	// it (client.Config.FollowRedirect).
	Redirect bool
	// Replicas is the virtual-node count per member (DefaultReplicas
	// when 0).
	Replicas int
	// ProbeTimeout bounds one per-peer /healthz probe (default 500ms).
	ProbeTimeout time.Duration
	// DownCooldown is how long a peer that failed a proxy or fetch stays
	// routed around before being optimistically revived (default 2s).
	DownCooldown time.Duration
	// BreakerFailures is how many consecutive transport/integrity failures
	// a peer is granted before its circuit opens and it is marked down
	// (default 3). One flaky response must not rebuild the ring.
	BreakerFailures int
	// PeerRetries is the extra attempts granted to one peer fetch or proxy
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
	return c
}

// normURL canonicalizes a member URL so "http://a:1/" and "http://a:1"
// name one node.
func normURL(u string) string { return strings.TrimRight(strings.TrimSpace(u), "/") }

// Membership tracks which members of a static fleet are currently routed
// to. The full set never changes; the alive set shrinks when a peer fails
// (MarkDown) and recovers after Config.DownCooldown. Every alive-set
// transition rebuilds the ring; the keyspace fraction that changed owners
// is accumulated (scaled to per-mille) as the RingMoves counter, so
// /metrics can show how much of the keyspace churned, not just how often.
type Membership struct {
	cfg Config

	mu        sync.Mutex
	ring      *Ring
	downUntil map[string]time.Time
	ringMoves int64 // accumulated moved keyspace, in 1/1000ths

	// now is a clock seam for tests.
	now func() time.Time
	// log receives membership transitions (peer down, peer revived); set
	// via SetLogger, defaults to discard.
	log *slog.Logger
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
		cfg:       cfg,
		downUntil: map[string]time.Time{},
		now:       time.Now,
		log:       slog.New(slog.DiscardHandler),
	}
	m.ring = NewRing(cfg.Peers, cfg.Replicas)
	return m, nil
}

// SetLogger routes membership transition records (peer marked down, peer
// revived) to l. Nil restores the discard default.
func (m *Membership) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	m.mu.Lock()
	m.log = l
	m.mu.Unlock()
}

// Config returns the (normalized) configuration the membership was built
// from.
func (m *Membership) Config() Config { return m.cfg }

// SetClock replaces the membership's time source — the seam the chaos
// tier uses to skew cooldown revival, and tests use to pin it. Nil
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

// Owner returns the member currently owning key, after reviving any peers
// whose down-cooldown has lapsed. Self is always a ring member: a node
// never routes away its own keys just because its peers think poorly of
// it.
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

// MarkDown routes around a peer for the configured cooldown — called when
// a proxy or artifact fetch to it fails. Marking self down is a no-op.
func (m *Membership) MarkDown(url string) {
	url = normURL(url)
	if url == m.cfg.SelfURL {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, already := m.downUntil[url]
	m.downUntil[url] = m.now().Add(m.cfg.DownCooldown)
	m.rebuildLocked()
	if !already {
		m.log.Warn("peer marked down; routing around it",
			slog.String("peer", url), slog.Duration("cooldown", m.cfg.DownCooldown))
	}
}

// RingMoves returns the accumulated keyspace movement over every
// membership transition so far, in 1/1000ths of the keyspace. A single
// node leaving a 3-node ring adds ~333; its revival adds ~333 more.
func (m *Membership) RingMoves() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ringMoves
}

// reviveLocked drops lapsed cooldowns and rebuilds the ring when any
// peer came back.
func (m *Membership) reviveLocked() {
	changed := false
	now := m.now()
	for url, until := range m.downUntil {
		if now.After(until) {
			delete(m.downUntil, url)
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
		if _, down := m.downUntil[p]; !down {
			alive = append(alive, p)
		}
	}
	next := NewRing(alive, m.cfg.Replicas)
	m.ringMoves += int64(m.ring.MovedFraction(next, 0) * 1000)
	m.ring = next
}
