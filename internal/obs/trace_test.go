package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanNesting(t *testing.T) {
	tr := NewTracer(TracerConfig{Node: "http://a"})
	ctx, trace := tr.StartRequest(context.Background(), "", "compile")
	if trace.ID() == "" {
		t.Fatal("no trace ID minted")
	}
	ctx2, outer := StartSpan(ctx, "admission.wait")
	ctx3, inner := StartSpan(ctx2, "cache.memory")
	// A callee sees the span its caller opened — and nothing above it:
	// directly under the root, and without a trace, there is none to note.
	if SpanFrom(ctx3) != inner || SpanFrom(ctx2) != outer || SpanFrom(ctx) != nil || SpanFrom(context.Background()) != nil {
		t.Error("SpanFrom does not return the innermost open span of its context")
	}
	SpanFrom(context.Background()).SetNote("no-op on nil")
	inner.SetNote("miss")
	inner.End()
	outer.End()
	// A sibling opened from the root context parents to the root span, not
	// to the (already closed) outer span.
	_, sib := StartSpan(ctx, "encode")
	sib.End()
	trace.Finish(200)

	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(snap.Recent))
	}
	rec := snap.Recent[0]
	if rec.ID != trace.ID() || rec.Status != 200 || rec.Node != "http://a" {
		t.Errorf("trace record = %+v", rec)
	}
	byName := map[string]SpanRecord{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["compile"]
	if !ok || root.Parent != "" {
		t.Fatalf("root span = %+v, %v", root, ok)
	}
	if byName["admission.wait"].Parent != root.ID {
		t.Errorf("outer span parents to %q, want root %q", byName["admission.wait"].Parent, root.ID)
	}
	if byName["cache.memory"].Parent != byName["admission.wait"].ID {
		t.Errorf("inner span parents to %q, want outer %q", byName["cache.memory"].Parent, byName["admission.wait"].ID)
	}
	if byName["cache.memory"].Note != "miss" {
		t.Errorf("note = %q, want miss", byName["cache.memory"].Note)
	}
	if byName["encode"].Parent != root.ID {
		t.Errorf("sibling parents to %q, want root %q", byName["encode"].Parent, root.ID)
	}
}

// TestTraceHeaderAdoption: node B adopting node A's header records the
// same trace ID and remembers which of A's spans forwarded the request.
func TestTraceHeaderAdoption(t *testing.T) {
	a := NewTracer(TracerConfig{Node: "http://a"})
	b := NewTracer(TracerConfig{Node: "http://b"})

	ctxA, traceA := a.StartRequest(context.Background(), "", "compile")
	ctxA, hop := StartSpan(ctxA, "fleet.proxy")
	header := HeaderValue(ctxA)
	if header == "" || !strings.HasPrefix(header, traceA.ID()+":") {
		t.Fatalf("header = %q, want %s:<span>", header, traceA.ID())
	}

	_, traceB := b.StartRequest(context.Background(), header, "compile")
	if traceB.ID() != traceA.ID() {
		t.Errorf("adopted ID = %q, want %q", traceB.ID(), traceA.ID())
	}
	traceB.Finish(200)
	hop.End()
	traceA.Finish(200)

	recB := b.Snapshot().Recent[0]
	wantParent := strings.TrimPrefix(header, traceA.ID()+":")
	if recB.ParentSpan != wantParent {
		t.Errorf("adopted parent span = %q, want %q", recB.ParentSpan, wantParent)
	}
}

func TestTraceHeaderGarbageRejected(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	for _, h := range []string{
		"no-colon", ":orphan", "id with space:sp", "evil\n:sp",
		strings.Repeat("x", 200) + ":sp",
	} {
		_, trace := tr.StartRequest(context.Background(), h, "compile")
		if strings.Contains(trace.ID(), " ") || strings.Contains(trace.ID(), "\n") {
			t.Errorf("header %q leaked into trace ID %q", h, trace.ID())
		}
		if got := trace.ID(); len(got) > 64 {
			t.Errorf("header %q produced oversized ID (%d bytes)", h, len(got))
		}
		trace.Finish(0)
	}
	// A well-formed header is adopted verbatim.
	_, trace := tr.StartRequest(context.Background(), "abcd-000001:abcd-000002", "compile")
	if trace.ID() != "abcd-000001" {
		t.Errorf("well-formed header not adopted: got %q", trace.ID())
	}
	trace.Finish(0)
}

// TestTracerRetention: the recent ring keeps the newest N; the slow set
// keeps the slowest M even after the ring cycles past them.
func TestTracerRetention(t *testing.T) {
	tr := NewTracer(TracerConfig{Recent: 4, Slow: 2})
	finishWithDur := func(name string, dur time.Duration) {
		_, trace := tr.StartRequest(context.Background(), "", name)
		trace.start = trace.start.Add(-dur) // backdate so Finish sees dur
		trace.Finish(200)
	}
	finishWithDur("slowest", 5*time.Second)
	finishWithDur("second-slowest", 2*time.Second)
	for i := 0; i < 10; i++ {
		finishWithDur(fmt.Sprintf("fast-%d", i), time.Millisecond)
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(snap.Recent))
	}
	if snap.Recent[0].Name != "fast-9" || snap.Recent[3].Name != "fast-6" {
		t.Errorf("recent order = [%s .. %s], want [fast-9 .. fast-6]",
			snap.Recent[0].Name, snap.Recent[3].Name)
	}
	if len(snap.Slow) != 2 || snap.Slow[0].Name != "slowest" || snap.Slow[1].Name != "second-slowest" {
		names := []string{}
		for _, r := range snap.Slow {
			names = append(names, r.Name)
		}
		t.Errorf("slow = %v, want [slowest second-slowest]", names)
	}
}

// TestLateSpanDropped: a span ending after the trace finished (a compile
// that outlived its 504'd request) is dropped, not appended to a
// published record.
func TestLateSpanDropped(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, trace := tr.StartRequest(context.Background(), "", "compile")
	_, late := StartSpan(ctx, "compile.detached")
	trace.Finish(504)
	late.End() // after Finish
	rec := tr.Snapshot().Recent[0]
	for _, sp := range rec.Spans {
		if sp.Name == "compile.detached" {
			t.Error("late span landed in the published trace record")
		}
	}
	trace.Finish(200) // double Finish is a no-op
	if n := len(tr.Snapshot().Recent); n != 1 {
		t.Errorf("double Finish recorded %d traces, want 1", n)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, trace := tr.StartRequest(context.Background(), "", "compile")
	for i := 0; i < maxSpans+50; i++ {
		_, sp := StartSpan(ctx, "loop")
		sp.End()
	}
	trace.Finish(200)
	if n := len(tr.Snapshot().Recent[0].Spans); n > maxSpans+1 {
		t.Errorf("trace grew to %d spans; cap is %d + root", n, maxSpans)
	}
}

// TestNilTracerPassThrough: every call on the disabled path must be safe
// and free of trace state.
func TestNilTracerPassThrough(t *testing.T) {
	var tr *Tracer
	ctx, trace := tr.StartRequest(context.Background(), "abc:def", "compile")
	if trace != nil {
		t.Fatal("nil tracer minted a trace")
	}
	if TraceIDFrom(ctx) != "" || HeaderValue(ctx) != "" {
		t.Error("traceless context reports a trace")
	}
	ctx2, sp := StartSpan(ctx, "x")
	if sp != nil || ctx2 != ctx {
		t.Error("traceless StartSpan allocated")
	}
	sp.SetNote("ignored")
	sp.Notef("ignored %d", 1)
	sp.End()
	trace.Finish(200)
	if TraceAttr(ctx).Key != "" {
		t.Error("traceless TraceAttr non-empty")
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 0 || len(snap.Slow) != 0 {
		t.Error("nil tracer snapshot non-empty")
	}
}

// TestTracerConcurrency races request starts, span recording and
// snapshots; under -race this is the tracer's thread-safety proof.
func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(TracerConfig{Recent: 8, Slow: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, trace := tr.StartRequest(context.Background(), "", "compile")
				_, sp := StartSpan(ctx, "work")
				sp.End()
				trace.Finish(200)
				if i%25 == 0 {
					tr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Recent) != 8 || len(snap.Slow) != 4 {
		t.Errorf("retention = %d recent / %d slow, want 8 / 4", len(snap.Recent), len(snap.Slow))
	}
}
