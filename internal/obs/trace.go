package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A trace is born when a request enters a node
// (Tracer.StartRequest), accumulates spans as the request moves through
// admission, coalescing, cache tiers, fleet hops and pipeline stages, and
// lands in the tracer's bounded retention ring when the request finishes.
// Crossing a fleet hop, the trace travels as the TraceHeader value
// ("traceID:spanID"); the receiving node adopts the trace ID and records
// its own spans under it, so GET /debug/traces on both nodes shows the
// same trace ID — one request, two nodes, one story.
//
// The trace context rides context.Context values, so it survives
// context.WithoutCancel (the compile service detaches compilations from
// the requesting context) and costs nothing when absent: StartSpan on a
// traceless context returns a nil *Span whose methods are no-ops.

// TraceHeader carries a trace across fleet hops: "traceID:parentSpanID".
const TraceHeader = "X-Streammap-Trace"

// maxSpans bounds one trace's span count; a runaway loop cannot grow a
// trace without bound.
const maxSpans = 256

// SpanRecord is one completed span of a trace.
type SpanRecord struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUS is the span's start offset from the trace's local start, in
	// microseconds; DurUS its duration.
	StartUS int64  `json:"startUS"`
	DurUS   int64  `json:"durUS"`
	Note    string `json:"note,omitempty"`
}

// TraceRecord is one completed trace as /debug/traces serves it.
type TraceRecord struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Node is the serving node's advertised URL ("" single-node).
	Node  string    `json:"node,omitempty"`
	Start time.Time `json:"start"`
	DurUS int64     `json:"durUS"`
	// Status is the HTTP status the request resolved to (0 when the
	// client vanished before a response was written).
	Status int `json:"status,omitempty"`
	// ParentSpan is the upstream span that propagated this trace here —
	// set only on adopted traces, where it names the proxying/fetching
	// node's span.
	ParentSpan string       `json:"parentSpan,omitempty"`
	Spans      []SpanRecord `json:"spans"`
}

// Trace is one in-flight request's accumulating trace.
type Trace struct {
	tracer     *Tracer
	id         string
	name       string
	parentSpan string
	rootID     string
	start      time.Time

	mu    sync.Mutex
	spans []SpanRecord
	done  bool
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// append records one completed span; late spans (after Finish, e.g. from
// a compilation that outlived its 504'd request) are dropped.
func (t *Trace) append(rec SpanRecord) {
	t.mu.Lock()
	if !t.done && len(t.spans) < maxSpans {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// Finish closes the trace's root span with the request's response status
// and hands the completed trace to the tracer's retention ring. Safe to
// call twice (the second call is a no-op) and on a nil trace.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	spans := append(t.spans, SpanRecord{
		ID:     t.rootID,
		Parent: t.parentSpan,
		Name:   t.name,
		DurUS:  now.Sub(t.start).Microseconds(),
	})
	t.mu.Unlock()
	t.tracer.record(&TraceRecord{
		ID:         t.id,
		Name:       t.name,
		Node:       t.tracer.cfg.Node,
		Start:      t.start,
		DurUS:      now.Sub(t.start).Microseconds(),
		Status:     status,
		ParentSpan: t.parentSpan,
		Spans:      spans,
	})
}

// Span is one in-flight span. A nil *Span (traceless context, disabled
// tracer) makes every method a no-op.
type Span struct {
	t      *Trace
	id     string
	parent string
	name   string
	start  time.Time
	note   string
}

// SetNote attaches a short annotation ("hit", "owner http://…", an error).
func (s *Span) SetNote(note string) {
	if s != nil {
		s.note = note
	}
}

// Notef is SetNote with formatting.
func (s *Span) Notef(format string, args ...any) {
	if s != nil {
		s.note = fmt.Sprintf(format, args...)
	}
}

// End completes the span and records it on the trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.append(SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.Sub(s.t.start).Microseconds(),
		DurUS:   time.Since(s.start).Microseconds(),
		Note:    s.note,
	})
}

// traceCtxKey carries the (trace, current span ID) pair.
type traceCtxKey struct{}

type traceCtx struct {
	t    *Trace
	span string
	cur  *Span // nil directly under the request's root
}

// StartSpan opens a span under ctx's trace, returning a context whose
// subsequent spans nest under it. On a traceless context it returns
// (ctx, nil) without allocating a span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tc, ok := ctx.Value(traceCtxKey{}).(traceCtx)
	if !ok {
		return ctx, nil
	}
	sp := &Span{
		t:      tc.t,
		id:     tc.t.tracer.nextID(),
		parent: tc.span,
		name:   name,
		start:  time.Now(),
	}
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{t: tc.t, span: sp.id, cur: sp}), sp
}

// SpanFrom returns the span ctx runs under, so a callee can annotate the
// span its caller opened with what only the callee knows. Nil (every method
// a no-op) on a traceless context and directly under a request's root.
func SpanFrom(ctx context.Context) *Span {
	tc, _ := ctx.Value(traceCtxKey{}).(traceCtx)
	return tc.cur
}

// TraceIDFrom returns ctx's trace ID ("" when untraced) — what log
// records carry.
func TraceIDFrom(ctx context.Context) string {
	if tc, ok := ctx.Value(traceCtxKey{}).(traceCtx); ok {
		return tc.t.id
	}
	return ""
}

// HeaderValue renders ctx's trace as the TraceHeader value for an
// outgoing fleet hop ("" when untraced — don't set the header).
func HeaderValue(ctx context.Context) string {
	tc, ok := ctx.Value(traceCtxKey{}).(traceCtx)
	if !ok {
		return ""
	}
	return tc.t.id + ":" + tc.span
}

// TracerConfig tunes a Tracer.
type TracerConfig struct {
	// Node stamps every trace with this node's identity (its advertised
	// fleet URL; "" single-node).
	Node string
	// Recent is how many most-recent traces are retained (default 128).
	Recent int
	// Slow is how many slowest traces are retained alongside the recent
	// ring (default 32) — the tail a bounded recency window would lose.
	Slow int
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.Recent <= 0 {
		c.Recent = 128
	}
	if c.Slow <= 0 {
		c.Slow = 32
	}
	return c
}

// Tracer mints trace/span IDs and retains completed traces: a ring of the
// most recent plus the slowest seen, so the worst requests of a loaded run
// are still inspectable after thousands of fast ones. Nil-safe: a nil Tracer
// makes StartRequest a pass-through.
type Tracer struct {
	cfg    TracerConfig
	prefix string
	seq    atomic.Uint64

	mu     sync.Mutex
	recent []*TraceRecord // ring; next is the write cursor
	next   int
	slow   []*TraceRecord // sorted ascending by DurUS; [0] is the fastest retained
}

// NewTracer returns a tracer. Each process gets a random ID prefix so
// span IDs minted by different fleet nodes can never collide within one
// cross-node trace.
func NewTracer(cfg TracerConfig) *Tracer {
	var b [4]byte
	rand.Read(b[:])
	return &Tracer{cfg: cfg.withDefaults(), prefix: hex.EncodeToString(b[:])}
}

// nextID mints a process-unique ID (trace or span).
func (tr *Tracer) nextID() string {
	return fmt.Sprintf("%s-%06x", tr.prefix, tr.seq.Add(1))
}

// StartRequest begins (or, given a propagated header value, adopts) a
// trace for one incoming request and opens its root span. The returned
// context carries the trace; pass it to everything the request touches.
// Finish the returned trace with the response status. A nil tracer
// returns (ctx, nil).
func (tr *Tracer) StartRequest(ctx context.Context, header, name string) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	t := &Trace{tracer: tr, name: name, start: time.Now()}
	if id, parent, ok := parseHeader(header); ok {
		t.id, t.parentSpan = id, parent
	} else {
		t.id = tr.nextID()
	}
	t.rootID = tr.nextID()
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{t: t, span: t.rootID}), t
}

// parseHeader splits a "traceID:spanID" header value, rejecting garbage
// (an adopted ID lands verbatim in logs and /debug/traces, so it must
// stay short and printable).
func parseHeader(h string) (id, parent string, ok bool) {
	if h == "" || len(h) > 128 {
		return "", "", false
	}
	id, parent, found := strings.Cut(h, ":")
	if !found || id == "" || !printable(id) || !printable(parent) {
		return "", "", false
	}
	return id, parent, true
}

func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
			return false
		}
	}
	return true
}

// record retains one completed trace: always in the recent ring, and in
// the slow set when it beats the fastest slow trace retained so far.
func (tr *Tracer) record(rec *TraceRecord) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.recent) < tr.cfg.Recent {
		tr.recent = append(tr.recent, rec)
		tr.next = len(tr.recent) % tr.cfg.Recent
	} else {
		tr.recent[tr.next] = rec
		tr.next = (tr.next + 1) % tr.cfg.Recent
	}
	switch {
	case len(tr.slow) < tr.cfg.Slow:
		tr.slow = append(tr.slow, rec)
		sort.SliceStable(tr.slow, func(i, j int) bool { return tr.slow[i].DurUS < tr.slow[j].DurUS })
	case rec.DurUS > tr.slow[0].DurUS:
		tr.slow[0] = rec
		sort.SliceStable(tr.slow, func(i, j int) bool { return tr.slow[i].DurUS < tr.slow[j].DurUS })
	}
}

// TracesSnapshot is the /debug/traces payload.
type TracesSnapshot struct {
	Node string `json:"node,omitempty"`
	// Recent holds the most recent traces, newest first.
	Recent []*TraceRecord `json:"recent"`
	// Slow holds the slowest traces seen, slowest first — retained even
	// after the recent ring has cycled past them.
	Slow []*TraceRecord `json:"slow"`
}

// Snapshot returns the retained traces. Records are immutable once
// retained, so sharing pointers with concurrent Finish calls is safe.
func (tr *Tracer) Snapshot() TracesSnapshot {
	if tr == nil {
		return TracesSnapshot{Recent: []*TraceRecord{}, Slow: []*TraceRecord{}}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	recent := make([]*TraceRecord, 0, len(tr.recent))
	for i := 1; i <= len(tr.recent); i++ {
		recent = append(recent, tr.recent[(tr.next-i+len(tr.recent))%len(tr.recent)])
	}
	slow := make([]*TraceRecord, 0, len(tr.slow))
	for i := len(tr.slow) - 1; i >= 0; i-- {
		slow = append(slow, tr.slow[i])
	}
	return TracesSnapshot{Node: tr.cfg.Node, Recent: recent, Slow: slow}
}
