// Package obs is the serving stack's observability layer: request-scoped
// tracing propagated across fleet hops, a hand-rolled atomic metrics
// registry exposed in Prometheus text format, and slog setup shared by
// every binary. It is stdlib-only and nil-safe throughout: a nil
// *Registry, *Tracer, *Counter, *Histogram or *Span turns every method
// into a no-op, so library code instruments unconditionally and only the
// binaries decide whether observability is on. The no-op paths are
// pinned zero-alloc and a few ns by benchmark (see bench_test.go),
// alongside the fault-injection seams' BenchmarkSeamDisabled.
//
// See DESIGN.md S19 for the metric naming scheme, the trace propagation
// rules and the cardinality budget.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension. Values must come from small fixed sets
// (a route name, a cache tier, a pipeline stage) — the registry is built
// for bounded cardinality, and series are allocated at registration, not
// per observation.
type Label struct {
	Key, Value string
}

// DefBuckets are the default latency buckets, in seconds: half a
// millisecond to a minute, covering everything from a memory-tier cache
// hit to a cold million-filter compile.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing metric. The zero value is usable;
// a nil Counter is a no-op. Add/Inc are one atomic add — the hot-path
// budget (≤ ~25ns, pinned by BenchmarkCounterInc).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error; counters only go
// up, but the registry does not pay for a check on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram. Observations are two atomic adds
// plus a short linear scan over the bucket bounds — no locks, no
// allocation (pinned by BenchmarkHistogramObserve). The sum is kept in
// integer micro-units so it needs no CAS loop; for latency-in-seconds
// histograms that is microsecond resolution.
type Histogram struct {
	bounds    []float64      // ascending upper bounds (le)
	counts    []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	sumMicros atomic.Int64
}

// Observe records one value (in the histogram's unit, seconds for
// latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumMicros.Add(int64(v * 1e6))
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one label-set of a family: exactly one of counter, fn or hist
// is set.
type series struct {
	labels  string // rendered {k="v",...}, "" for no labels
	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind
	mu   sync.Mutex
	ser  []*series // sorted by labels
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration takes a lock and may allocate; it
// happens at process start. Observation touches only the returned
// Counter/Histogram — atomics, no registry involvement. A nil Registry
// returns nil instruments, making every downstream call a no-op.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fam: map[string]*family{}}
}

// family fetches or creates the named family, panicking on a kind or help
// conflict — that is a programmer error at process start, never a
// request-time condition.
func (r *Registry) family(name, help string, kind metricKind) *family {
	f, ok := r.fam[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.fam[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// addSeries installs one series under the family, panicking on a
// duplicate label-set.
func (f *family) addSeries(s *series) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, have := range f.ser {
		if have.labels == s.labels {
			panic(fmt.Sprintf("obs: metric %s%s registered twice", f.name, s.labels))
		}
	}
	f.ser = append(f.ser, s)
	sort.Slice(f.ser, func(i, j int) bool { return f.ser[i].labels < f.ser[j].labels })
}

// Counter registers (or returns a no-op for a nil registry) a counter
// series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindCounter).addSeries(&series{labels: renderLabels(labels), counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time: a total that something else owns and the serving path never
// increments itself (the circuit breaker's opens, the ring's moves, the
// runtime's allocation totals). A count the request path keeps is a Counter,
// incremented where the event happens — it is stored nowhere else.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindCounter).addSeries(&series{labels: renderLabels(labels), fn: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time: a level the
// code itself holds and branches on (queue depth, the drain flag) or that
// a structure already knows (table entries, peers alive).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindGauge).addSeries(&series{labels: renderLabels(labels), fn: fn})
}

// Histogram registers a fixed-bucket histogram series. buckets must be
// ascending; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(buckets)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindHistogram).addSeries(&series{labels: renderLabels(labels), hist: h})
	return h
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %d: %v", i, buckets))
		}
	}
	return &Histogram{bounds: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// HistogramVec is a family of histograms over one label key whose values
// arrive at runtime (pipeline stage names). Series are created on first
// use under a lock — With is not for per-request hot paths, it is for
// once-per-compile observations — and capped at maxVecSeries: beyond the
// cap every new value lands in a catch-all "other" series, so a bug that
// invents label values cannot grow the exposition without bound. That cap
// is the cardinality budget made structural.
type HistogramVec struct {
	reg     *Registry
	name    string
	help    string
	key     string
	buckets []float64
	base    []Label

	mu sync.Mutex
	m  map[string]*Histogram
}

// maxVecSeries bounds the distinct label values one HistogramVec accepts.
const maxVecSeries = 32

// HistogramVec registers a histogram family keyed by labelKey.
func (r *Registry) HistogramVec(name, help, labelKey string, buckets []float64, base ...Label) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{
		reg: r, name: name, help: help, key: labelKey, buckets: buckets, base: base,
		m: map[string]*Histogram{},
	}
}

// With returns the histogram for one label value, creating it on first
// use (nil-safe).
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[value]; ok {
		return h
	}
	if len(v.m) >= maxVecSeries {
		value = "other"
		if h, ok := v.m[value]; ok {
			return h
		}
	}
	labels := append(append([]Label{}, v.base...), Label{v.key, value})
	h := v.reg.Histogram(v.name, v.help, v.buckets, labels...)
	v.m[value] = h
	return h
}

// renderLabels renders a label set as {k="v",...}, keys sorted, so equal
// sets always render identically. Values are escaped per the exposition
// format (backslash, quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
