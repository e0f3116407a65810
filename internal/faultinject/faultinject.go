// Package faultinject is the deterministic, seeded fault-injection layer
// behind the serving stack's chaos tier. It decides — reproducibly, from a
// seed — when an outgoing peer request is refused, delayed, corrupted or
// truncated, when a disk write is torn, silently corrupted or hits ENOSPC,
// and how far the membership clock is skewed. The packages that own the
// real I/O (core's disk tier, fleet's DirStore and membership clock, the
// server's peer transport) call the Injector at explicit seams; with a nil
// *Injector every seam is a no-op with zero overhead (pinned by
// BenchmarkSeamDisabled), so production builds pay nothing for the tier's
// existence.
//
// Determinism: every decision is a pure function of (seed, site, n) where
// site names the seam (e.g. "peer:10.0.0.3:8372", "disk") and n is the
// site's own call counter. Concurrency can reorder which *request* draws
// the n-th decision (and cache state can change how many draws a run
// makes), but each site's fault schedule is pinned by the seed — what
// internal/server's TestChaosMix asserts is that the hardening bars (zero
// non-429 errors, bit-equivalent artifacts) hold under it. See DESIGN.md
// S18.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spec configures which faults fire and how often. Probabilities are in
// [0,1] per seam call; the zero Spec injects nothing.
type Spec struct {
	// Seed pins the fault schedule. Two injectors with equal specs draw
	// identical decisions at identical (site, call-index) pairs.
	Seed uint64

	// PeerRefuse is the probability an outgoing peer HTTP request fails
	// immediately with a connection-refused-style transport error.
	PeerRefuse float64
	// PeerLatency is the delay injected into an outgoing peer request
	// with probability PeerLatencyP (a slow owner, not a dead one).
	PeerLatency  time.Duration
	PeerLatencyP float64
	// CorruptBody flips one byte of a peer response body (bit rot on the
	// wire; content-hash verification must catch it).
	CorruptBody float64
	// TruncateBody cuts a peer response body in half (a torn read).
	TruncateBody float64

	// TornWrite aborts an atomic file write after the temp file holds only
	// a prefix — the crash-before-rename case. The destination is never
	// touched; the partial temp file is left behind as the crash would
	// leave it.
	TornWrite float64
	// CorruptFile lets an atomic write "succeed" while committing only a
	// prefix of the data — a filesystem that lied about durability. The
	// reader must quarantine the entry, never serve or silently overwrite
	// it.
	CorruptFile float64
	// WriteENOSPC fails a file write with an out-of-space error after a
	// partial temp write (the temp file is cleaned up, as the real code
	// path would).
	WriteENOSPC float64

	// ClockSkewMax bounds the absolute skew applied per clock reading
	// (uniform in [-ClockSkewMax, +ClockSkewMax]) by a skewed Clock —
	// cooldown revivals fire early or late, never wrongly.
	ClockSkewMax time.Duration
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.PeerRefuse > 0 || (s.PeerLatencyP > 0 && s.PeerLatency > 0) ||
		s.CorruptBody > 0 || s.TruncateBody > 0 ||
		s.TornWrite > 0 || s.CorruptFile > 0 || s.WriteENOSPC > 0 ||
		s.ClockSkewMax > 0
}

// Stats counts the faults an injector actually fired, per kind. The chaos
// harness reports them so "no failures" can be distinguished from "no
// faults fired".
type Stats struct {
	Refused   int64 `json:"refused"`
	Delayed   int64 `json:"delayed"`
	Corrupted int64 `json:"corrupted"` // response bodies bit-flipped
	Truncated int64 `json:"truncated"` // response bodies cut short
	Torn      int64 `json:"torn"`      // writes aborted before rename
	BadFiles  int64 `json:"badFiles"`  // writes committed with partial content
	NoSpace   int64 `json:"noSpace"`   // writes failed with ENOSPC
}

// Injector draws fault decisions. A nil *Injector is valid and means
// "injection disabled": every method returns the no-fault answer without
// locking, allocating or drawing.
type Injector struct {
	spec Spec

	mu    sync.Mutex
	sites map[string]*uint64

	refused   atomic.Int64
	delayed   atomic.Int64
	corrupted atomic.Int64
	truncated atomic.Int64
	torn      atomic.Int64
	badFiles  atomic.Int64
	noSpace   atomic.Int64
}

// New returns an injector for spec, or nil when the spec injects nothing —
// so callers thread the result straight through without checking Enabled.
func New(spec Spec) *Injector {
	if !spec.Enabled() {
		return nil
	}
	return &Injector{spec: spec, sites: map[string]*uint64{}}
}

// Spec returns the injector's configuration (zero Spec for nil).
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// Stats snapshots the fired-fault counters (zero for nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Refused:   in.refused.Load(),
		Delayed:   in.delayed.Load(),
		Corrupted: in.corrupted.Load(),
		Truncated: in.truncated.Load(),
		Torn:      in.torn.Load(),
		BadFiles:  in.badFiles.Load(),
		NoSpace:   in.noSpace.Load(),
	}
}

// seq returns the site's next call index.
func (in *Injector) seq(site string) uint64 {
	in.mu.Lock()
	c, ok := in.sites[site]
	if !ok {
		c = new(uint64)
		in.sites[site] = c
	}
	n := *c
	*c++
	in.mu.Unlock()
	return n
}

// Decision sub-draw kinds: one seam call draws several independent
// verdicts from one (site, n) pair, distinguished by these constants.
const (
	kindRefuse = iota + 1
	kindLatency
	kindCorrupt
	kindTruncate
	kindWrite
	kindSkew
	kindByte
)

// splitmix64 is the standard 64-bit finalizing mixer — enough entropy for
// fault schedules, dependency-free, and stable across Go versions (unlike
// math/rand's stream, which is not part of any compatibility promise).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func siteHash(site string) uint64 {
	// FNV-1a, inlined to keep the disabled path free of hash.Hash64 allocs
	// on the enabled path too.
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// draw returns a uniform float64 in [0,1) for (seed, site, n, kind).
func (in *Injector) draw(site uint64, n uint64, kind uint64) float64 {
	x := splitmix64(in.spec.Seed ^ splitmix64(site+kind) ^ splitmix64(n*0x9E3779B97F4A7C15+kind))
	return float64(x>>11) / float64(1<<53)
}

// PeerDecision is the verdict for one outgoing peer request.
type PeerDecision struct {
	Refuse   bool
	Latency  time.Duration
	Corrupt  bool
	Truncate bool
	// byteSeed picks which body byte a Corrupt verdict flips.
	byteSeed uint64
}

// Peer draws the verdict for one outgoing request at site (conventionally
// "peer:<host>"). Nil injector: the zero decision.
func (in *Injector) Peer(site string) PeerDecision {
	if in == nil {
		return PeerDecision{}
	}
	sh, n := siteHash(site), in.seq(site)
	var d PeerDecision
	if in.draw(sh, n, kindRefuse) < in.spec.PeerRefuse {
		d.Refuse = true
		in.refused.Add(1)
		return d // a refused connection has no latency or body to hurt
	}
	if in.spec.PeerLatency > 0 && in.draw(sh, n, kindLatency) < in.spec.PeerLatencyP {
		d.Latency = in.spec.PeerLatency
		in.delayed.Add(1)
	}
	if in.draw(sh, n, kindCorrupt) < in.spec.CorruptBody {
		d.Corrupt = true
		d.byteSeed = splitmix64(in.spec.Seed ^ sh ^ (n + kindByte))
		in.corrupted.Add(1)
	}
	if !d.Corrupt && in.draw(sh, n, kindTruncate) < in.spec.TruncateBody {
		d.Truncate = true
		in.truncated.Add(1)
	}
	return d
}

// WriteFault is the verdict for one atomic file write.
type WriteFault int

// Write-fault kinds.
const (
	WriteOK WriteFault = iota
	// WriteTorn: crash before rename — partial temp file left behind,
	// destination untouched, error returned.
	WriteTorn
	// WriteCorrupt: the write reports success but committed only a prefix.
	WriteCorrupt
	// WriteNoSpace: the write fails with ErrNoSpace after a partial temp.
	WriteNoSpace
)

// ErrNoSpace is the injected out-of-space write error.
var ErrNoSpace = errors.New("faultinject: no space left on device")

// ErrTorn is the injected crash-before-rename write error.
var ErrTorn = errors.New("faultinject: torn write (crash before rename)")

// Write draws the verdict for one file write at site. Nil: WriteOK.
func (in *Injector) Write(site string) WriteFault {
	if in == nil {
		return WriteOK
	}
	sh, n := siteHash(site), in.seq(site)
	u := in.draw(sh, n, kindWrite)
	switch {
	case u < in.spec.TornWrite:
		in.torn.Add(1)
		return WriteTorn
	case u < in.spec.TornWrite+in.spec.CorruptFile:
		in.badFiles.Add(1)
		return WriteCorrupt
	case u < in.spec.TornWrite+in.spec.CorruptFile+in.spec.WriteENOSPC:
		in.noSpace.Add(1)
		return WriteNoSpace
	}
	return WriteOK
}

// Skew draws one clock-skew offset, uniform in [-ClockSkewMax, +ClockSkewMax].
// Nil or unconfigured: 0.
func (in *Injector) Skew() time.Duration {
	if in == nil || in.spec.ClockSkewMax <= 0 {
		return 0
	}
	sh, n := siteHash("clock"), in.seq("clock")
	u := in.draw(sh, n, kindSkew) // [0,1)
	return time.Duration((2*u - 1) * float64(in.spec.ClockSkewMax))
}

// Clock wraps base (time.Now when nil) with per-reading skew — the seam
// the fleet membership clock accepts, so cooldown revival fires early or
// late under chaos. A nil injector returns base unchanged.
func (in *Injector) Clock(base func() time.Time) func() time.Time {
	if base == nil {
		base = time.Now
	}
	if in == nil || in.spec.ClockSkewMax <= 0 {
		return base
	}
	return func() time.Time { return base().Add(in.Skew()) }
}

// Transport wraps rt (http.DefaultTransport when nil) with peer-request
// fault injection: refusal, latency, response-body corruption and
// truncation, drawn per target host so each peer link has its own pinned
// schedule. A nil injector returns rt unchanged — callers install it
// unconditionally.
func (in *Injector) Transport(rt http.RoundTripper) http.RoundTripper {
	if in == nil {
		return rt
	}
	if rt == nil {
		rt = http.DefaultTransport
	}
	return &faultTransport{in: in, rt: rt}
}

type faultTransport struct {
	in *Injector
	rt http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.in.Peer("peer:" + req.URL.Host)
	if d.Refuse {
		return nil, fmt.Errorf("faultinject: dial %s: connection refused", req.URL.Host)
	}
	if d.Latency > 0 {
		select {
		case <-time.After(d.Latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := t.rt.RoundTrip(req)
	if err != nil || resp == nil || (!d.Corrupt && !d.Truncate) {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	switch {
	case d.Truncate && len(body) > 1:
		body = body[:len(body)/2]
	case d.Corrupt && len(body) > 0:
		// Flip the low bit of one byte: in a JSON artifact this usually
		// turns a digit into its neighbor — bytes that still parse, still
		// carry the right fingerprint, and are silently WRONG. Only
		// content-hash verification catches it, which is the point.
		body[int(d.byteSeed%uint64(len(body)))] ^= 0x01
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp, nil
}

// Parse builds a Spec from its flag form: comma-separated key=value pairs.
//
//	seed=7,peer-refuse=0.1,latency=50ms:0.2,corrupt=0.05,truncate=0.05,
//	torn-write=0.1,corrupt-file=0.05,enospc=0.02,skew=300ms
//
// Unknown keys are an error (a typo must not silently disable a fault).
// The empty string parses to the zero Spec.
func Parse(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("faultinject: %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseUint(strings.TrimPrefix(val, "0x"), seedBase(val), 64)
		case "peer-refuse":
			spec.PeerRefuse, err = parseProb(val)
		case "latency":
			// duration:probability; bare duration means probability 1.
			dur, p, cut := strings.Cut(val, ":")
			spec.PeerLatency, err = time.ParseDuration(dur)
			spec.PeerLatencyP = 1
			if err == nil && cut {
				spec.PeerLatencyP, err = parseProb(p)
			}
		case "corrupt":
			spec.CorruptBody, err = parseProb(val)
		case "truncate":
			spec.TruncateBody, err = parseProb(val)
		case "torn-write":
			spec.TornWrite, err = parseProb(val)
		case "corrupt-file":
			spec.CorruptFile, err = parseProb(val)
		case "enospc":
			spec.WriteENOSPC, err = parseProb(val)
		case "skew":
			spec.ClockSkewMax, err = time.ParseDuration(val)
		default:
			return spec, fmt.Errorf("faultinject: unknown fault key %q (have %s)", key, strings.Join(specKeys, ", "))
		}
		if err != nil {
			return spec, fmt.Errorf("faultinject: %s: %w", key, err)
		}
	}
	return spec, nil
}

var specKeys = func() []string {
	ks := []string{"seed", "peer-refuse", "latency", "corrupt", "truncate", "torn-write", "corrupt-file", "enospc", "skew"}
	sort.Strings(ks)
	return ks
}()

func seedBase(v string) int {
	if strings.HasPrefix(v, "0x") {
		return 16
	}
	return 10
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("probability %q outside [0,1]", v)
	}
	return p, nil
}

// String renders the spec in its Parse form (round-trips; "" when zero).
func (s Spec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if s.Seed != 0 {
		add("seed", strconv.FormatUint(s.Seed, 10))
	}
	if s.PeerRefuse > 0 {
		add("peer-refuse", trimFloat(s.PeerRefuse))
	}
	if s.PeerLatency > 0 && s.PeerLatencyP > 0 {
		add("latency", s.PeerLatency.String()+":"+trimFloat(s.PeerLatencyP))
	}
	if s.CorruptBody > 0 {
		add("corrupt", trimFloat(s.CorruptBody))
	}
	if s.TruncateBody > 0 {
		add("truncate", trimFloat(s.TruncateBody))
	}
	if s.TornWrite > 0 {
		add("torn-write", trimFloat(s.TornWrite))
	}
	if s.CorruptFile > 0 {
		add("corrupt-file", trimFloat(s.CorruptFile))
	}
	if s.WriteENOSPC > 0 {
		add("enospc", trimFloat(s.WriteENOSPC))
	}
	if s.ClockSkewMax > 0 {
		add("skew", s.ClockSkewMax.String())
	}
	return strings.Join(parts, ",")
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
