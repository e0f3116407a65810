package faultinject

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpecParseRoundTrip(t *testing.T) {
	in := "seed=7,peer-refuse=0.1,latency=50ms:0.2,corrupt=0.05,truncate=0.05,torn-write=0.1,corrupt-file=0.05,enospc=0.02,skew=300ms"
	spec, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Seed != 7 || spec.PeerRefuse != 0.1 || spec.PeerLatency != 50*time.Millisecond ||
		spec.PeerLatencyP != 0.2 || spec.CorruptBody != 0.05 || spec.TruncateBody != 0.05 ||
		spec.TornWrite != 0.1 || spec.CorruptFile != 0.05 || spec.WriteENOSPC != 0.02 ||
		spec.ClockSkewMax != 300*time.Millisecond {
		t.Fatalf("parsed spec wrong: %+v", spec)
	}
	spec2, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", spec.String(), err)
	}
	if spec2 != spec {
		t.Fatalf("round trip: %+v != %+v", spec2, spec)
	}
}

func TestSpecParseErrors(t *testing.T) {
	for _, bad := range []string{
		"peer-refuse=1.5", // probability out of range
		"nonsense=0.1",    // unknown key
		"latency=50ms:2",  // probability out of range
		"torn-write",      // not key=value
		"skew=banana",     // bad duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error, got nil", bad)
		}
	}
	spec, err := Parse("")
	if err != nil || spec.Enabled() {
		t.Fatalf("Parse(\"\") = %+v, %v; want zero spec, nil", spec, err)
	}
}

func TestNewNilWhenDisabled(t *testing.T) {
	if in := New(Spec{Seed: 42}); in != nil {
		t.Fatalf("New with only a seed should be nil (nothing to inject)")
	}
	var in *Injector
	if d := in.Peer("peer:x"); d != (PeerDecision{}) {
		t.Fatalf("nil Peer = %+v, want zero", d)
	}
	if f := in.Write("disk"); f != WriteOK {
		t.Fatalf("nil Write = %v, want WriteOK", f)
	}
	if s := in.Skew(); s != 0 {
		t.Fatalf("nil Skew = %v, want 0", s)
	}
	if rt := in.Transport(http.DefaultTransport); rt != http.DefaultTransport {
		t.Fatal("nil Transport must return the wrapped transport unchanged")
	}
	if in.Clock(nil) == nil {
		t.Fatal("nil Clock(nil) must still return a usable clock")
	}
	if st := in.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	spec := Spec{Seed: 99, PeerRefuse: 0.3, CorruptBody: 0.2, TruncateBody: 0.2, TornWrite: 0.3, WriteENOSPC: 0.1}
	run := func() ([]PeerDecision, []WriteFault) {
		in := New(spec)
		var peers []PeerDecision
		var writes []WriteFault
		for i := 0; i < 200; i++ {
			peers = append(peers, in.Peer("peer:a"))
			writes = append(writes, in.Write("disk"))
		}
		return peers, writes
	}
	p1, w1 := run()
	p2, w2 := run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("peer decision %d diverged: %+v vs %+v", i, p1[i], p2[i])
		}
		if w1[i] != w2[i] {
			t.Fatalf("write fault %d diverged: %v vs %v", i, w1[i], w2[i])
		}
	}
	// Different sites draw different schedules from the same seed.
	in := New(spec)
	same := true
	for i := 0; i < 50; i++ {
		if in.Peer("peer:a") != in.Peer("peer:b") {
			same = false
		}
	}
	if same {
		t.Fatal("sites a and b drew identical 50-draw schedules; site hash not mixed in")
	}
}

func TestFaultRatesRoughlyMatch(t *testing.T) {
	in := New(Spec{Seed: 5, PeerRefuse: 0.25, TornWrite: 0.25})
	const n = 4000
	for i := 0; i < n; i++ {
		in.Peer("peer:x")
		in.Write("disk")
	}
	st := in.Stats()
	if st.Refused < n/8 || st.Refused > n/2 {
		t.Fatalf("refused %d of %d at p=0.25; far off", st.Refused, n)
	}
	if st.Torn < n/8 || st.Torn > n/2 {
		t.Fatalf("torn %d of %d at p=0.25; far off", st.Torn, n)
	}
}

func TestTransportFaults(t *testing.T) {
	const body = `{"payload":"0123456789abcdef0123456789abcdef"}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer srv.Close()

	get := func(rt http.RoundTripper) (string, error) {
		c := &http.Client{Transport: rt, Timeout: 5 * time.Second}
		resp, err := c.Get(srv.URL)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	t.Run("refuse", func(t *testing.T) {
		in := New(Spec{Seed: 1, PeerRefuse: 1})
		if _, err := get(in.Transport(nil)); err == nil || !strings.Contains(err.Error(), "connection refused") {
			t.Fatalf("want injected refusal, got %v", err)
		}
		if in.Stats().Refused == 0 {
			t.Fatal("refusal not counted")
		}
	})
	t.Run("truncate", func(t *testing.T) {
		in := New(Spec{Seed: 1, TruncateBody: 1})
		got, err := get(in.Transport(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got != body[:len(body)/2] {
			t.Fatalf("want half body, got %q", got)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		in := New(Spec{Seed: 1, CorruptBody: 1})
		got, err := get(in.Transport(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got == body || len(got) != len(body) {
			t.Fatalf("want same-length flipped body, got %q", got)
		}
		diff := 0
		for i := range got {
			if got[i] != body[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("want exactly 1 corrupted byte, got %d", diff)
		}
	})
	t.Run("latency-honors-context", func(t *testing.T) {
		in := New(Spec{Seed: 1, PeerLatency: 5 * time.Second, PeerLatencyP: 1})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		start := time.Now()
		_, err := (&http.Client{Transport: in.Transport(nil)}).Do(req)
		if err == nil {
			t.Fatal("want context deadline error")
		}
		if time.Since(start) > time.Second {
			t.Fatalf("latency injection ignored context cancellation (%v elapsed)", time.Since(start))
		}
	})
}

func TestClockSkew(t *testing.T) {
	in := New(Spec{Seed: 3, ClockSkewMax: time.Second})
	base := time.Unix(1_700_000_000, 0)
	clock := in.Clock(func() time.Time { return base })
	sawSkew := false
	for i := 0; i < 64; i++ {
		d := clock().Sub(base)
		if d < -time.Second || d > time.Second {
			t.Fatalf("skew %v outside ±1s", d)
		}
		if d != 0 {
			sawSkew = true
		}
	}
	if !sawSkew {
		t.Fatal("64 readings, zero skew — Skew not wired into Clock")
	}
}

// BenchmarkSeamDisabled pins the acceptance criterion that a nil injector
// costs nothing at the seams: no allocations, single-digit ns.
func BenchmarkSeamDisabled(b *testing.B) {
	var in *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = in.Peer("peer:a")
		_ = in.Write("disk")
		_ = in.Skew()
	}
}
