package fleet

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testMembership(t *testing.T, peers ...string) *Membership {
	t.Helper()
	m, err := NewMembership(Config{SelfURL: peers[0], Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMembershipNormalizesSelfAndPeers(t *testing.T) {
	m, err := NewMembership(Config{
		SelfURL: "http://a:1/",
		Peers:   []string{"http://b:2", "http://b:2/", " http://c:3 "},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Self(); got != "http://a:1" {
		t.Errorf("Self = %q", got)
	}
	if got := m.Peers(); len(got) != 2 || got[0] != "http://b:2" || got[1] != "http://c:3" {
		t.Errorf("Peers = %v, want deduplicated [http://b:2 http://c:3]", got)
	}
	if got := len(m.Alive()); got != 3 {
		t.Errorf("Alive set has %d members, want 3 (self added)", got)
	}
	if _, err := NewMembership(Config{Peers: []string{"http://b:2"}}); err == nil {
		t.Error("NewMembership accepted an empty SelfURL")
	}
}

// TestMembershipMarkDownReroutes: a peer whose circuit opens is marked
// down — its keys move to survivors — and it comes back after the
// cooldown; the keyspace churn lands in RingMoves.
func TestMembershipMarkDownReroutes(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	m, err := NewMembership(Config{SelfURL: peers[0], Peers: peers, BreakerFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now()
	m.SetClock(func() time.Time { return clock })

	keys := testKeys(3000)
	ownedByB := 0
	for _, k := range keys {
		if m.Owner(k) == "http://b:2" {
			ownedByB++
		}
	}
	if ownedByB == 0 {
		t.Fatal("node b owns no keys before its circuit opens")
	}

	if !m.Failure(context.Background(), "http://b:2") {
		t.Fatal("failure at a threshold of 1 did not open the circuit")
	}
	for _, k := range keys {
		if got := m.Owner(k); got == "http://b:2" {
			t.Fatalf("key %q still routed to downed peer", k)
		}
	}
	if got := len(m.Alive()); got != 2 {
		t.Errorf("Alive after the circuit opened = %d members, want 2", got)
	}
	if moves := m.RingMoves(); moves < 200 || moves > 500 {
		t.Errorf("RingMoves = %d after 1-of-3 leave, want ~333 (1/3 of keyspace, per mille)", moves)
	}

	// Cooldown lapse revives the peer and restores its exact ownership
	// (consistent hashing: the revived ring is the original ring).
	clock = clock.Add(m.Config().DownCooldown + time.Second)
	backToB := 0
	for _, k := range keys {
		if m.Owner(k) == "http://b:2" {
			backToB++
		}
	}
	if backToB != ownedByB {
		t.Errorf("revived peer owns %d keys, want its original %d", backToB, ownedByB)
	}
}

// TestMembershipSelfNeverDown: a node always routes its own keys to
// itself, whatever it is told about its own health.
func TestMembershipSelfNeverDown(t *testing.T) {
	m := testMembership(t, "http://a:1", "http://b:2")
	opened := false
	for range m.Config().BreakerFailures {
		opened = m.Failure(context.Background(), "http://a:1")
	}
	if !opened {
		t.Fatal("self's circuit did not open at the threshold")
	}
	if got := len(m.Alive()); got != 2 {
		t.Errorf("an open circuit on self shrank the alive set to %d", got)
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{SelfURL: "http://a:1", Peers: []string{"http://a:1/"}}).Enabled() {
		t.Error("self-only fleet reported enabled")
	}
	if !(Config{SelfURL: "http://a:1", Peers: []string{"http://a:1", "http://b:2"}}).Enabled() {
		t.Error("two-node fleet reported disabled")
	}
	if (Config{}).Enabled() {
		t.Error("zero config reported enabled")
	}
}

// circuitMembership returns a two-node membership (self a, peer b) with
// the given failure threshold and cooldown.
func circuitMembership(t *testing.T, failures int, cooldown time.Duration) *Membership {
	t.Helper()
	m, err := NewMembership(Config{
		SelfURL: "http://a:1", Peers: []string{"http://a:1", "http://b:2"},
		BreakerFailures: failures, DownCooldown: cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBreakerLifecycle pins the full circuit against a seamed clock:
// closed absorbs BreakerFailures-1 consecutive failures, the Nth opens and
// takes the peer out of the ring; open rejects until the cooldown lapses;
// at that instant the peer is back in the ring and half-open admits
// exactly one probe; a failed probe reopens for a fresh cooldown; a
// successful probe closes the circuit and resets the failure count.
func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	m := circuitMembership(t, 3, 2*time.Second)
	m.SetClock(func() time.Time { return clock })
	const peer = "http://b:2"
	ctx := context.Background()
	alive := func() int { return len(m.Alive()) }

	// Closed: failures below the threshold keep the circuit closed.
	for i := 0; i < 2; i++ {
		if !m.Allow(peer) {
			t.Fatalf("closed circuit rejected request %d", i)
		}
		if m.Failure(ctx, peer) {
			t.Fatalf("failure %d opened the circuit below threshold", i+1)
		}
	}
	if alive() != 2 {
		t.Fatal("failures below the threshold took the peer out of the ring")
	}
	if !m.Allow(peer) {
		t.Fatal("closed circuit rejected request at threshold")
	}
	if !m.Failure(ctx, peer) {
		t.Fatal("third consecutive failure did not open the circuit")
	}
	if m.Opens() != 1 {
		t.Fatalf("Opens = %d, want 1", m.Opens())
	}
	if m.Allow(peer) {
		t.Fatal("open circuit admitted a request inside the cooldown")
	}
	if alive() != 1 {
		t.Fatal("open circuit left the peer in the ring")
	}

	// The cooldown lapses: at that very instant the peer rejoins the ring
	// and half-open admits exactly one probe.
	clock = clock.Add(2 * time.Second)
	if alive() != 2 {
		t.Fatal("peer did not rejoin the ring when its cooldown lapsed")
	}
	if !m.Allow(peer) {
		t.Fatal("half-open circuit rejected the probe")
	}
	if m.Allow(peer) {
		t.Fatal("half-open circuit admitted a second concurrent probe")
	}

	// Probe fails: straight back to open for a fresh cooldown.
	if !m.Failure(ctx, peer) {
		t.Fatal("failed half-open probe did not reopen the circuit")
	}
	if m.Opens() != 2 {
		t.Fatalf("Opens = %d after reopen, want 2", m.Opens())
	}
	if m.Allow(peer) {
		t.Fatal("reopened circuit admitted a request")
	}
	if alive() != 1 {
		t.Fatal("reopened circuit left the peer in the ring")
	}

	// Second probe succeeds: closed, failure count reset.
	clock = clock.Add(2*time.Second + time.Millisecond)
	if !m.Allow(peer) {
		t.Fatal("half-open circuit rejected the second probe")
	}
	m.Success(peer)
	for i := 0; i < 2; i++ {
		if !m.Allow(peer) {
			t.Fatal("closed-after-probe circuit rejected a request")
		}
		if m.Failure(ctx, peer) {
			t.Fatal("failure count was not reset by the successful probe")
		}
	}
	if alive() != 2 {
		t.Fatal("closed circuit left the peer out of the ring")
	}
}

// TestHalfOpenAdmitsOneProbeConcurrently: however many requests race for
// a lapsed circuit, exactly one becomes the probe, while ring reads,
// failures and successes on other peers run beside them.
func TestHalfOpenAdmitsOneProbeConcurrently(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	m, err := NewMembership(Config{
		SelfURL: "http://a:1", Peers: []string{"http://b:2", "http://c:3"},
		BreakerFailures: 1, DownCooldown: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetClock(func() time.Time { return clock })
	m.Failure(context.Background(), "http://b:2")
	clock = clock.Add(time.Second)

	const racers = 8
	var probes atomic.Int32
	var wg sync.WaitGroup
	for i := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m.Allow("http://b:2") {
				probes.Add(1)
			}
			m.Owner(testKeys(racers)[i])
			if i%2 == 0 {
				m.Failure(context.Background(), "http://c:3")
			} else {
				m.Success("http://c:3")
			}
			m.Alive()
			m.Opens()
			m.RingMoves()
		}()
	}
	wg.Wait()
	if got := probes.Load(); got != 1 {
		t.Fatalf("%d concurrent requests admitted as the half-open probe, want 1", got)
	}
}

// TestBreakerPeersIndependent: one peer's open circuit never affects
// another's.
func TestBreakerPeersIndependent(t *testing.T) {
	m, err := NewMembership(Config{
		SelfURL: "http://a:1", Peers: []string{"http://b:1", "http://c:1"},
		BreakerFailures: 1, DownCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Failure(context.Background(), "http://b:1")
	if m.Allow("http://b:1") {
		t.Fatal("peer b should be open")
	}
	if !m.Allow("http://c:1") {
		t.Fatal("peer c tripped by peer b's circuit")
	}
	if got := m.Alive(); !slices.Equal(got, []string{"http://a:1", "http://c:1"}) {
		t.Fatalf("Alive = %v, want b alone routed around", got)
	}
}

// TestBreakerSuccessResetsStreak: non-consecutive failures never open —
// the circuit counts streaks, not totals.
func TestBreakerSuccessResetsStreak(t *testing.T) {
	m := circuitMembership(t, 2, time.Hour)
	const peer = "http://b:2"
	for i := 0; i < 16; i++ {
		if m.Failure(context.Background(), peer) {
			t.Fatalf("interleaved failure %d opened the circuit", i)
		}
		m.Success(peer)
	}
	if m.Opens() != 0 || m.RingMoves() != 0 {
		t.Fatalf("Opens = %d, RingMoves = %d for interleaved failures", m.Opens(), m.RingMoves())
	}
}

// TestBreakerDefaults pins the documented zero-value behavior of the
// circuit and retry settings.
func TestBreakerDefaults(t *testing.T) {
	cfg := testMembership(t, "http://a:1", "http://b:2").Config()
	if cfg.BreakerFailures != 3 || cfg.DownCooldown != 2*time.Second {
		t.Fatalf("default circuit = %d failures, %v cooldown; want 3, 2s", cfg.BreakerFailures, cfg.DownCooldown)
	}
	if cfg.PeerRetries != 1 {
		t.Fatalf("default PeerRetries = %d, want 1", cfg.PeerRetries)
	}
	if cfg.RetryBackoff != 10*time.Millisecond {
		t.Fatalf("default RetryBackoff = %v, want 10ms", cfg.RetryBackoff)
	}
	m, err := NewMembership(Config{SelfURL: "http://a:1", PeerRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().PeerRetries; got >= 0 {
		t.Fatalf("negative PeerRetries normalized to %d, want it kept negative (no retries)", got)
	}
}

// oldBreaker and oldMembership are the two records of a peer's health that
// Membership replaced, kept as the referee FuzzPeerHealth holds it to: the
// per-peer circuit breaker, and the membership's down set that the server
// marked whenever the breaker reported an opening. Locks, logging and URL
// normalization are left out; the fuzz drives one goroutine with
// canonical URLs.
type oldBreaker struct {
	failures int
	cooldown time.Duration
	peers    map[string]*oldBreakerPeer
	now      func() time.Time
	opens    int64
}

type oldBreakerPeer struct {
	fails     int
	open      bool
	openUntil time.Time
	probing   bool
}

func (b *oldBreaker) peer(url string) *oldBreakerPeer {
	p, ok := b.peers[url]
	if !ok {
		p = &oldBreakerPeer{}
		b.peers[url] = p
	}
	return p
}

func (b *oldBreaker) Allow(url string) bool {
	p := b.peer(url)
	if !p.open {
		return true
	}
	if p.probing || b.now().Before(p.openUntil) {
		return false
	}
	p.probing = true
	return true
}

func (b *oldBreaker) Success(url string) {
	p := b.peer(url)
	p.fails = 0
	p.open = false
	p.probing = false
}

func (b *oldBreaker) Failure(url string) bool {
	p := b.peer(url)
	p.fails++
	if p.probing {
		p.probing = false
		p.openUntil = b.now().Add(b.cooldown)
		b.opens++
		return true
	}
	if !p.open && p.fails >= b.failures {
		p.open = true
		p.openUntil = b.now().Add(b.cooldown)
		b.opens++
		return true
	}
	return false
}

type oldMembership struct {
	self      string
	peers     []string
	cooldown  time.Duration
	replicas  int
	ring      *Ring
	downUntil map[string]time.Time
	ringMoves int64
	now       func() time.Time
}

func (m *oldMembership) Owner(key string) string {
	m.revive()
	return m.ring.Owner(key)
}

func (m *oldMembership) Alive() []string {
	m.revive()
	return m.ring.Nodes()
}

func (m *oldMembership) MarkDown(url string) {
	if url == m.self {
		return
	}
	m.downUntil[url] = m.now().Add(m.cooldown)
	m.rebuild()
}

func (m *oldMembership) revive() {
	changed := false
	now := m.now()
	for url, until := range m.downUntil {
		if now.After(until) {
			delete(m.downUntil, url)
			changed = true
		}
	}
	if changed {
		m.rebuild()
	}
}

func (m *oldMembership) rebuild() {
	var alive []string
	for _, p := range m.peers {
		if _, down := m.downUntil[p]; !down {
			alive = append(alive, p)
		}
	}
	next := NewRing(alive, m.replicas)
	m.ringMoves += int64(m.ring.MovedFraction(next) * 1000)
	m.ring = next
}

// FuzzPeerHealth drives Membership and the old breaker/down-set pair with
// one random sequence of Allow, Success, Failure, Owner, Alive and clock
// steps under one clock, and requires identical results: every Allow
// verdict, every opened flag, the owner of a fixed key set, the alive set,
// Opens and RingMoves after every step.
//
// Every cooldown ends half a millisecond off the millisecond grid the
// clock steps on, so no reading lands exactly on a cooldown's end. At that
// instant the old pair disagreed with itself — the down set revived on
// now.After(until), the breaker probed on !now.Before(openUntil) — while
// Membership does both at once; TestBreakerLifecycle pins that instant.
func FuzzPeerHealth(f *testing.F) {
	f.Add(uint8(0), []byte{2, 2, 2, 0, 3, 6, 4, 0, 0, 2, 3, 6, 0, 1, 3})
	f.Add(uint8(2), []byte{10, 10, 3, 4, 14, 0, 1, 3, 6, 8, 10, 4, 5, 21, 13})
	r := rand.New(rand.NewSource(44))
	for range 16 {
		ops := make([]byte, 32+r.Intn(96))
		r.Read(ops)
		f.Add(uint8(r.Intn(4)), ops)
	}
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	keys := testKeys(64)
	f.Fuzz(func(t *testing.T, failures uint8, ops []byte) {
		// Each circuit transition rebuilds the ring and measures its moved
		// keyspace, the cost of one step; a long sequence adds nothing a
		// short one cannot reach.
		ops = ops[:min(len(ops), 128)]
		const cooldown = 50*time.Millisecond + 500*time.Microsecond
		clock := time.Unix(1_700_000_000, 0)
		now := func() time.Time { return clock }
		cfg := Config{SelfURL: members[0], Peers: members, Replicas: 16,
			BreakerFailures: 1 + int(failures%4), DownCooldown: cooldown}
		m, err := NewMembership(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetClock(now)
		ob := &oldBreaker{failures: cfg.BreakerFailures, cooldown: cooldown, peers: map[string]*oldBreakerPeer{}, now: now}
		om := &oldMembership{self: members[0], peers: m.Config().Peers, cooldown: cooldown, replicas: cfg.Replicas,
			ring: NewRing(members, cfg.Replicas), downUntil: map[string]time.Time{}, now: now}
		ctx := context.Background()
		for i, op := range ops {
			peer := members[int(op>>3)%len(members)]
			switch op & 7 {
			case 0, 1:
				if got, want := m.Allow(peer), ob.Allow(peer); got != want {
					t.Fatalf("step %d: Allow(%s) = %v, old pair %v", i, peer, got, want)
				}
			case 2:
				m.Success(peer)
				ob.Success(peer)
			case 3:
				opened, want := m.Failure(ctx, peer), ob.Failure(peer)
				if want {
					om.MarkDown(peer)
				}
				if opened != want {
					t.Fatalf("step %d: Failure(%s) opened = %v, old pair %v", i, peer, opened, want)
				}
			case 4:
				for _, k := range keys {
					if got, want := m.Owner(k), om.Owner(k); got != want {
						t.Fatalf("step %d: Owner(%s) = %s, old pair %s", i, k, got, want)
					}
				}
			case 5:
				if got, want := m.Alive(), om.Alive(); !slices.Equal(got, want) {
					t.Fatalf("step %d: Alive = %v, old pair %v", i, got, want)
				}
			case 6:
				clock = clock.Add(time.Duration(1+op>>3) * time.Millisecond)
			case 7:
				clock = clock.Add(cooldown + time.Duration(op>>3)*time.Millisecond - 500*time.Microsecond)
			}
			if got, want := m.Opens(), ob.opens; got != want {
				t.Fatalf("step %d: Opens = %d, old pair %d", i, got, want)
			}
			if got, want := m.RingMoves(), om.ringMoves; got != want {
				t.Fatalf("step %d: RingMoves = %d, old pair %d", i, got, want)
			}
		}
	})
}
