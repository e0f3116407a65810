package smreq

import (
	"testing"
	"testing/quick"

	"streammap/internal/sdf"
)

func passthrough(name string, n int) *sdf.Filter {
	return sdf.NewFilter(name, n, n, 0, int64(n), func(w *sdf.Work) {
		copy(w.Out[0], w.In[0][:n])
	})
}

func allNodes(g *sdf.Graph) []sdf.NodeID {
	ids := make([]sdf.NodeID, g.NumNodes())
	for i := range ids {
		ids[i] = sdf.NodeID(i)
	}
	return ids
}

func analyzeWhole(t *testing.T, name string, st sdf.Stream) *Layout {
	t.Helper()
	g, err := sdf.Flatten(name, st)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.Extract(allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := Analyze(sub)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func analyzeWholeShared(t *testing.T, name string, st sdf.Stream) *Layout {
	t.Helper()
	g, err := sdf.Flatten(name, st)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.Extract(allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := AnalyzeShared(sub)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// The paper's Figure 3.2 claim: a pipeline's SM requirement barely exceeds
// its filters', while a same-width split structure needs all branch buffers
// live at once.
func TestPipelineVsSplitRequirement(t *testing.T) {
	const w = 16
	pipe := analyzeWhole(t, "pipe", sdf.Pipe("p",
		sdf.F(passthrough("a", w)), sdf.F(passthrough("b", w)),
		sdf.F(passthrough("c", w)), sdf.F(passthrough("d", w))))

	branches := []sdf.Stream{
		sdf.F(passthrough("b0", w)), sdf.F(passthrough("b1", w)),
		sdf.F(passthrough("b2", w)), sdf.F(passthrough("b3", w)),
	}
	split := analyzeWhole(t, "split",
		sdf.SplitDupRR("sj", w, []int{w, w, w, w}, branches...))

	if split.PeakBytes <= pipe.PeakBytes {
		t.Errorf("split peak %d should exceed pipeline peak %d", split.PeakBytes, pipe.PeakBytes)
	}
	// Pipeline peak: double-buffered in+out (2*2*w*4) plus at most two
	// internal w-buffers live: allow <= 6 buffer widths of slack.
	maxPipe := int64(8 * w * sdf.TokenBytes)
	if pipe.PeakBytes > maxPipe {
		t.Errorf("pipeline peak %d too high (>%d)", pipe.PeakBytes, maxPipe)
	}
}

func TestPeekBufferPersists(t *testing.T) {
	f := sdf.NewFilter("fir", 1, 1, 8, 8, func(w *sdf.Work) {
		var s sdf.Token
		for i := 0; i < 8; i++ {
			s += w.In[0][i]
		}
		w.Out[0][0] = s
	})
	lay := analyzeWhole(t, "fir", sdf.Pipe("p", sdf.F(passthrough("pre", 1)), sdf.F(f)))
	var found bool
	for _, b := range lay.Buffers {
		if b.Kind == Internal {
			found = true
			if b.Start != 0 || b.End != len(lay.Schedule)-1 {
				t.Errorf("peeked buffer lifetime [%d,%d] should span the schedule", b.Start, b.End)
			}
			// 1 token/iter + 7 window remainder.
			if b.Bytes != 8*sdf.TokenBytes {
				t.Errorf("peeked buffer bytes = %d, want %d", b.Bytes, 8*sdf.TokenBytes)
			}
		}
	}
	if !found {
		t.Fatal("no internal buffer found")
	}
}

func TestIODoubleBuffered(t *testing.T) {
	lay := analyzeWhole(t, "one", sdf.Pipe("p", sdf.F(passthrough("x", 4))))
	var in, out *Buffer
	for i := range lay.Buffers {
		switch lay.Buffers[i].Kind {
		case PrimaryIn:
			in = &lay.Buffers[i]
		case PrimaryOut:
			out = &lay.Buffers[i]
		}
	}
	if in == nil || out == nil {
		t.Fatal("missing IO buffers")
	}
	if in.Copies != 2 || out.Copies != 2 {
		t.Errorf("IO buffers must be double buffered, got %d/%d", in.Copies, out.Copies)
	}
	want := int64(2 * 2 * 4 * sdf.TokenBytes)
	if lay.PeakBytes != want {
		t.Errorf("peak = %d, want %d", lay.PeakBytes, want)
	}
}

func TestStateBuffer(t *testing.T) {
	f := sdf.NewFilter("acc", 1, 1, 0, 1, func(w *sdf.Work) {
		w.State[0] += w.In[0][0]
		w.Out[0][0] = w.State[0]
	})
	f.Init = []sdf.Token{0, 0, 0}
	lay := analyzeWhole(t, "st", sdf.Pipe("p", sdf.F(f)))
	found := false
	for _, b := range lay.Buffers {
		if b.Kind == State {
			found = true
			if b.Bytes != 3*sdf.TokenBytes {
				t.Errorf("state bytes = %d", b.Bytes)
			}
		}
	}
	if !found {
		t.Fatal("state buffer missing")
	}
}

// Property: allocated buffers never overlap while simultaneously live, and
// the peak is at least the live lower bound.
func TestAllocationNonOverlappingQuick(t *testing.T) {
	f := func(widths []uint8) bool {
		if len(widths) == 0 {
			return true
		}
		if len(widths) > 8 {
			widths = widths[:8]
		}
		streams := make([]sdf.Stream, 0, len(widths))
		for i, w := range widths {
			n := int(w)%7 + 1
			streams = append(streams, sdf.F(passthrough("f"+string(rune('a'+i)), n)))
		}
		// Same width chain: keep rates matching by using equal n.
		n := int(widths[0])%7 + 1
		for i := range streams {
			streams[i] = sdf.F(passthrough("f"+string(rune('a'+i)), n))
		}
		g, err := sdf.Flatten("q", sdf.Pipe("p", streams...))
		if err != nil {
			return false
		}
		sub, err := g.Extract(allNodes(g))
		if err != nil {
			return false
		}
		lay, err := AnalyzeShared(sub)
		if err != nil {
			return false
		}
		if lay.PeakBytes < lay.MaxLiveBytes {
			return false
		}
		for i, a := range lay.Buffers {
			for j, b := range lay.Buffers {
				if i >= j {
					continue
				}
				liveTogether := a.Start <= b.End && b.Start <= a.End
				overlap := a.Offset < b.Offset+b.Total() && b.Offset < a.Offset+a.Total()
				if liveTogether && overlap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSplitBuffersDoNotOverlap(t *testing.T) {
	const w = 8
	lay := analyzeWholeShared(t, "split",
		sdf.SplitDupRR("sj", w, []int{w, w, w},
			sdf.F(passthrough("b0", w)), sdf.F(passthrough("b1", w)), sdf.F(passthrough("b2", w))))
	for i, a := range lay.Buffers {
		for j, b := range lay.Buffers {
			if i >= j {
				continue
			}
			liveTogether := a.Start <= b.End && b.Start <= a.End
			overlap := a.Offset < b.Offset+b.Total() && b.Offset < a.Offset+a.Total()
			if liveTogether && overlap {
				t.Errorf("buffers %d and %d overlap while live", i, j)
			}
		}
	}
}

func TestStaticIsSumOfBuffers(t *testing.T) {
	lay := analyzeWhole(t, "sum", sdf.Pipe("p",
		sdf.F(passthrough("a", 8)), sdf.F(passthrough("b", 8)), sdf.F(passthrough("c", 8))))
	var sum int64
	for _, b := range lay.Buffers {
		sum += b.Total()
	}
	if lay.PeakBytes != sum {
		t.Errorf("static peak %d != buffer sum %d", lay.PeakBytes, sum)
	}
	// Offsets are disjoint by construction.
	for i, a := range lay.Buffers {
		for j, b := range lay.Buffers {
			if i < j && a.Offset < b.Offset+b.Total() && b.Offset < a.Offset+a.Total() {
				t.Errorf("static buffers %d and %d overlap", i, j)
			}
		}
	}
}

func TestSharedNeverExceedsStatic(t *testing.T) {
	build := func() sdf.Stream {
		return sdf.Pipe("p",
			sdf.F(passthrough("a", 16)),
			sdf.SplitDupRR("sj", 16, []int{16, 16},
				sdf.F(passthrough("l", 16)), sdf.F(passthrough("r", 16))),
			sdf.F(passthrough("z", 32)))
	}
	static := analyzeWhole(t, "s1", build())
	shared := analyzeWholeShared(t, "s2", build())
	if shared.PeakBytes > static.PeakBytes {
		t.Errorf("shared peak %d exceeds static %d", shared.PeakBytes, static.PeakBytes)
	}
}

// TestPeakBytesViewMatchesAnalyze pins the view-based SM requirement (the
// estimation engine's hot path) against Analyze on the extracted subgraph,
// over every contiguous topological window of a few representative shapes.
func TestPeakBytesViewMatchesAnalyze(t *testing.T) {
	movSum := sdf.NewFilter("MovSum", 1, 1, 3, 3, func(w *sdf.Work) {
		w.Out[0][0] = w.In[0][0] + w.In[0][1] + w.In[0][2]
	})
	up2 := sdf.NewFilter("Up2", 1, 2, 0, 1, func(w *sdf.Work) {
		w.Out[0][0], w.Out[0][1] = w.In[0][0], w.In[0][0]
	})
	down2 := sdf.NewFilter("Down2", 2, 1, 0, 1, func(w *sdf.Work) { w.Out[0][0] = w.In[0][0] })
	graphs := []struct {
		name string
		st   sdf.Stream
	}{
		{"pipe", sdf.Pipe("p", sdf.F(passthrough("a", 2)), sdf.F(passthrough("b", 2)), sdf.F(passthrough("c", 2)))},
		{"rate", sdf.Pipe("p", sdf.F(up2), sdf.F(down2))},
		{"sj", sdf.Pipe("p", sdf.F(passthrough("h", 1)),
			sdf.SplitDupRR("sj", 1, []int{1, 1}, sdf.F(passthrough("x", 1)), sdf.F(passthrough("y", 1))))},
		{"peek", sdf.Pipe("p", sdf.F(passthrough("h", 1)), sdf.WithDelay(sdf.F(movSum), []sdf.Token{1, 2}))},
	}
	for _, gc := range graphs {
		g, err := sdf.Flatten(gc.name, gc.st)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		var v sdf.SubView
		for start := range order {
			set := sdf.NewNodeSet(g.NumNodes())
			for size := 0; start+size < len(order); size++ {
				set.Add(order[start+size])
				sub, err := g.Extract(set.Members())
				if err != nil {
					t.Fatalf("%s %v: %v", gc.name, set, err)
				}
				lay, layErr := Analyze(sub)
				v.Fill(g, set.Members())
				peak, viewErr := PeakBytesView(&v)
				if (layErr == nil) != (viewErr == nil) {
					t.Fatalf("%s %v: Analyze err %v, view err %v", gc.name, set, layErr, viewErr)
				}
				if layErr == nil && peak != lay.PeakBytes {
					t.Fatalf("%s %v: view peak %d, Analyze %d", gc.name, set, peak, lay.PeakBytes)
				}
			}
		}
	}
}
