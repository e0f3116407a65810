package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// goldenRegistry builds a registry with one of everything, loaded with
// fixed values, so the exposition is byte-deterministic.
func goldenRegistry() *Registry {
	r := NewRegistry()
	reqs := r.Counter("streammap_http_requests_total", "Requests received by route.",
		Label{"route", "compile"})
	reqs.Add(42)
	r.Counter("streammap_http_requests_total", "Requests received by route.",
		Label{"route", "remap"}).Add(7)
	r.CounterFunc("streammap_rejected_total", "Requests shed with 429.",
		func() float64 { return 3 })
	r.GaugeFunc("streammap_in_flight", "Leaders holding a compile slot.",
		func() float64 { return 2 })
	h := r.Histogram("streammap_request_duration_seconds", "Request latency by route.",
		[]float64{0.01, 0.1, 1}, Label{"route", "compile"})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	return r
}

// TestExpositionGolden pins the /metrics output shape byte for byte: the
// family ordering, HELP/TYPE lines, label rendering, cumulative buckets
// and the _sum/_count pair. A renderer change that breaks this golden
// breaks every scraper config downstream — change the golden knowingly.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("OBS_REGEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with OBS_REGEN_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionParsesBack: the exposition must round-trip through our
// own parser — the same property the benchmark harness and CI rely on.
func TestExpositionParsesBack(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(buf.Bytes())
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	if v, ok := s.Get("streammap_http_requests_total", Label{"route", "compile"}); !ok || v != 42 {
		t.Errorf("counter sample = %v, %v; want 42, true", v, ok)
	}
	if v, ok := s.Get("streammap_request_duration_seconds_count", Label{"route", "compile"}); !ok || v != 5 {
		t.Errorf("histogram count = %v, %v; want 5, true", v, ok)
	}
	if v, ok := s.Get("streammap_request_duration_seconds_bucket",
		Label{"route", "compile"}, Label{"le", "+Inf"}); !ok || v != 5 {
		t.Errorf("+Inf bucket = %v, %v; want 5, true", v, ok)
	}
}

func TestSamplesDelta(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "test", []float64{0.1, 1, 10})
	scrape := func() Samples {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := ParseText(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	h.Observe(5)
	before := scrape()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	delta := scrape().Delta(before)
	if v, _ := delta.Get("d_seconds_count"); v != 100 {
		t.Fatalf("delta count = %v, want 100", v)
	}
	if v, _ := delta.Get("d_seconds_bucket", Label{"le", "1"}); v != 100 {
		t.Errorf("delta le=1 bucket = %v, want 100", v)
	}
	if v, _ := delta.Get("d_seconds_bucket", Label{"le", "10"}); v != 100 {
		t.Errorf("delta le=10 bucket = %v, want 100 (the earlier observation is not this delta's)", v)
	}
}

// TestHistogramVecCap: a vec that sees more label values than the
// cardinality budget collapses the overflow into one "other" series
// instead of growing the exposition without bound.
func TestHistogramVecCap(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("stage_seconds", "test", "stage", []float64{1})
	for i := 0; i < maxVecSeries+10; i++ {
		v.With(string(rune('a'+i%26)) + string(rune('0'+i/26))).Observe(0.5)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("stage_seconds_count", Label{"stage", "other"}); !ok {
		t.Error("overflow label values did not collapse into the other series")
	}
	series := 0
	for k := range s {
		if len(k) > len("stage_seconds_count") && k[:len("stage_seconds_count")] == "stage_seconds_count" {
			series++
		}
	}
	if series > maxVecSeries+1 {
		t.Errorf("vec grew to %d series; budget is %d + other", series, maxVecSeries)
	}
}

// TestNilRegistryIsNoOp: every instrument from a nil registry must be
// callable — library code instruments unconditionally.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "nil")
	c.Inc()
	c.Add(5)
	h := r.Histogram("y_seconds", "nil", nil)
	h.Observe(1)
	r.CounterFunc("z_total", "nil", func() float64 { return 1 })
	r.GaugeFunc("g", "nil", func() float64 { return 1 })
	v := r.HistogramVec("s", "nil", "k", nil)
	v.With("a").Observe(1)
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments accumulated state")
	}
}

// TestRegistryConcurrency hammers registration, observation and scraping
// together; run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "race test")
	h := r.Histogram("conc_seconds", "race test", nil)
	v := r.HistogramVec("conc_stage_seconds", "race test", "stage", []float64{0.1, 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 100)
				v.With([]string{"profile", "partition", "map"}[i%3]).Observe(0.2)
				if i%50 == 0 {
					var buf bytes.Buffer
					if err := r.WriteText(&buf); err != nil {
						t.Error(err)
						return
					}
					if _, err := ParseText(buf.Bytes()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
	if got := h.Count(); got != 8*500 {
		t.Errorf("histogram count = %d, want %d", got, 8*500)
	}
}
