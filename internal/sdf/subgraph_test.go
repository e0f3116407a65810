package sdf

import (
	"fmt"
	"slices"
	"testing"
)

// allNodes returns every node id of g, ascending.
func allNodes(g *Graph) []NodeID {
	all := make([]NodeID, g.NumNodes())
	for i := range all {
		all[i] = NodeID(i)
	}
	return all
}

// subgraphIOBytes is the paper's per-execution I/O data size D counted on
// the extracted graph's own primary ports — cut edges and inherited primary
// ports alike: the reference SubView.IOBytesPerIteration is held to.
func subgraphIOBytes(s *Subgraph) int64 {
	var tokens int64
	for _, p := range s.Sub.InputPorts() {
		tokens += s.Sub.PortTokens(p, true)
	}
	for _, p := range s.Sub.OutputPorts() {
		tokens += s.Sub.PortTokens(p, false)
	}
	return tokens * TokenBytes
}

func TestExtractPipelineMiddle(t *testing.T) {
	g := mustGraph(t, "pipe", Pipe("p", F(addOne()), F(double()), F(addOne())))
	s, err := g.Extract([]NodeID{1}) // the Double node
	if err != nil {
		t.Fatal(err)
	}
	if s.Sub.NumNodes() != 1 || s.Sub.NumEdges() != 0 {
		t.Fatalf("sub shape: %d nodes %d edges", s.Sub.NumNodes(), s.Sub.NumEdges())
	}
	if len(s.CutIn) != 1 || len(s.CutOut) != 1 {
		t.Fatalf("cut: in %d out %d", len(s.CutIn), len(s.CutOut))
	}
	if s.Scale != 1 {
		t.Errorf("scale = %d, want 1", s.Scale)
	}
	if got := subgraphIOBytes(s); got != 2*TokenBytes {
		t.Errorf("IO bytes = %d, want %d", got, 2*TokenBytes)
	}
}

// TestExtractRejectsUnorderedMembers: a sub id is a member's position, found
// by binary search, so only strictly ascending in-range ids are a member
// list.
func TestExtractRejectsUnorderedMembers(t *testing.T) {
	g := mustGraph(t, "pipe", Pipe("p", F(addOne()), F(double()), F(addOne())))
	for _, members := range [][]NodeID{{1, 0}, {0, 0}, {-1}, {3}} {
		if _, err := g.Extract(members); err == nil {
			t.Errorf("Extract(%v) accepted", members)
		}
	}
}

func TestExtractScale(t *testing.T) {
	// AddOne fires 2x per Down2 firing; extracting {AddOne} alone gives
	// rep=[1] with scale 2.
	g := mustGraph(t, "mix", Pipe("p", F(addOne()), F(downsample2())))
	s, err := g.Extract([]NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale != 2 {
		t.Errorf("scale = %d, want 2", s.Scale)
	}
	if s.Sub.Rep(0) != 1 {
		t.Errorf("sub rep = %d, want 1", s.Sub.Rep(0))
	}
}

func TestExtractFunctionalEquivalence(t *testing.T) {
	// Splitting a pipeline into two partitions and chaining their
	// interpreters must reproduce the whole-graph output.
	g := mustGraph(t, "pipe", Pipe("p", F(addOne()), F(double()), F(addOne()), F(double())))
	whole, _ := NewInterp(g)
	input := []Token{1, 2, 3, 4, 5}
	wantOut, err := whole.Run(5, [][]Token{input})
	if err != nil {
		t.Fatal(err)
	}

	sf, err := g.Extract([]NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := g.Extract([]NodeID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	itF, _ := NewInterp(sf.Sub)
	itB, _ := NewInterp(sb.Sub)
	mid, err := itF.Run(5, [][]Token{input})
	if err != nil {
		t.Fatal(err)
	}
	final, err := itB.Run(5, mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(final[0]) != len(wantOut[0]) {
		t.Fatalf("len %d vs %d", len(final[0]), len(wantOut[0]))
	}
	for i := range final[0] {
		if final[0][i] != wantOut[0][i] {
			t.Errorf("tok %d: %v != %v", i, final[0][i], wantOut[0][i])
		}
	}
}

func TestExtractDiamondWhole(t *testing.T) {
	g := mustGraph(t, "sj", SplitDupRR("sj", 1, []int{1, 1}, F(addOne()), F(double())))
	s, err := g.Extract(allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CutIn) != 0 || len(s.CutOut) != 0 {
		t.Errorf("whole-graph extraction should have no cut edges")
	}
	if len(s.Sub.InputPorts()) != 1 || len(s.Sub.OutputPorts()) != 1 {
		t.Errorf("primary ports should be inherited")
	}
}

func TestExtractPreservesInitialTokens(t *testing.T) {
	body := NewFilter("Acc", 2, 2, 0, 3, func(w *Work) {
		s := w.In[0][0] + w.In[0][1]
		w.Out[0][0], w.Out[0][1] = s, s
	})
	loop := LoopOf("acc", RoundRobinJoiner([]int{1, 1}), F(body),
		RoundRobinSplitter([]int{1, 1}), nil, []Token{0})
	g := mustGraph(t, "loop", loop)
	s, err := g.Extract(allNodes(g))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range s.Sub.Edges {
		if len(e.Initial) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("delay tokens lost in extraction")
	}
}

// extractWholeGraph is Extract as it was before it walked the members' own
// ports: two passes over every edge of the parent, testing both endpoints
// for membership. It is kept as the oracle for the edge order the adjacency
// walk must reproduce.
func extractWholeGraph(g *Graph, set NodeSet) (*Subgraph, error) {
	members := set.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("sdf: Extract: empty set")
	}
	s := &Subgraph{}
	subOf := make(map[NodeID]NodeID, len(members))
	sub := &Graph{Name: g.Name + set.String()}
	for _, pid := range members {
		pn := g.Nodes[pid]
		id := NodeID(len(sub.Nodes))
		n := &Node{ID: id, Filter: pn.Filter, Pipe: pn.Pipe,
			in: make([]EdgeID, len(pn.in)), out: make([]EdgeID, len(pn.out))}
		for i := range n.in {
			n.in[i] = -1
		}
		for i := range n.out {
			n.out[i] = -1
		}
		sub.Nodes = append(sub.Nodes, n)
		s.NodeOf = append(s.NodeOf, pid)
		subOf[pid] = id
	}
	for _, e := range g.Edges {
		if set.Has(e.Src) && set.Has(e.Dst) {
			ne := &Edge{
				ID:  EdgeID(len(sub.Edges)),
				Src: subOf[e.Src], SrcPort: e.SrcPort, Push: e.Push,
				Dst: subOf[e.Dst], DstPort: e.DstPort, Pop: e.Pop, Peek: e.Peek,
				Initial: append([]Token(nil), e.Initial...),
			}
			sub.Nodes[ne.Src].out[ne.SrcPort] = ne.ID
			sub.Nodes[ne.Dst].in[ne.DstPort] = ne.ID
			sub.Edges = append(sub.Edges, ne)
		}
	}
	for _, e := range g.Edges {
		srcIn, dstIn := set.Has(e.Src), set.Has(e.Dst)
		if srcIn && !dstIn {
			s.CutOut = append(s.CutOut, BoundaryEdge{Orig: e.ID, Port: PortRef{subOf[e.Src], e.SrcPort}})
		} else if !srcIn && dstIn {
			s.CutIn = append(s.CutIn, BoundaryEdge{Orig: e.ID, Port: PortRef{subOf[e.Dst], e.DstPort}})
		}
	}
	reps := make([]int64, len(members))
	var gcd int64
	for i, pid := range members {
		reps[i] = g.Rep(pid)
		gcd = GCD(gcd, reps[i])
	}
	rep := make([]int64, len(members))
	for i := range reps {
		rep[i] = reps[i] / gcd
	}
	sub.rep = rep
	s.Scale = gcd
	s.Sub = sub
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// sameExtraction compares every field of two extractions a consumer can
// observe, in order: names, node map, sub edges, cut lists, reps and scale.
func sameExtraction(got, want *Subgraph) error {
	if got.Sub.Name != want.Sub.Name {
		return fmt.Errorf("name %q, want %q", got.Sub.Name, want.Sub.Name)
	}
	if !slices.Equal(got.NodeOf, want.NodeOf) {
		return fmt.Errorf("NodeOf %v, want %v", got.NodeOf, want.NodeOf)
	}
	if !slices.Equal(got.CutIn, want.CutIn) {
		return fmt.Errorf("CutIn %v, want %v", got.CutIn, want.CutIn)
	}
	if !slices.Equal(got.CutOut, want.CutOut) {
		return fmt.Errorf("CutOut %v, want %v", got.CutOut, want.CutOut)
	}
	if got.Scale != want.Scale || !slices.Equal(got.Sub.rep, want.Sub.rep) {
		return fmt.Errorf("scale %d reps %v, want %d %v", got.Scale, got.Sub.rep, want.Scale, want.Sub.rep)
	}
	// Extract is one of the two places a Graph is born: its vector must
	// hold as Builder.Graph's does, a count of at least 1 per node.
	for id := range got.Sub.Nodes {
		if r := got.Sub.Rep(NodeID(id)); r < 1 {
			return fmt.Errorf("sub node %d fires %d times per iteration", id, r)
		}
	}
	if len(got.Sub.Nodes) != len(want.Sub.Nodes) {
		return fmt.Errorf("%d sub nodes, want %d", len(got.Sub.Nodes), len(want.Sub.Nodes))
	}
	for i, n := range got.Sub.Nodes {
		w := want.Sub.Nodes[i]
		if n.ID != w.ID || n.Filter != w.Filter || n.Pipe != w.Pipe ||
			!slices.Equal(n.in, w.in) || !slices.Equal(n.out, w.out) {
			return fmt.Errorf("sub node %d: %+v, want %+v", i, *n, *w)
		}
	}
	if len(got.Sub.Edges) != len(want.Sub.Edges) {
		return fmt.Errorf("%d sub edges, want %d", len(got.Sub.Edges), len(want.Sub.Edges))
	}
	for i, e := range got.Sub.Edges {
		w := want.Sub.Edges[i]
		if e.ID != w.ID || e.Src != w.Src || e.SrcPort != w.SrcPort || e.Push != w.Push ||
			e.Dst != w.Dst || e.DstPort != w.DstPort || e.Pop != w.Pop || e.Peek != w.Peek ||
			!slices.Equal(e.Initial, w.Initial) {
			return fmt.Errorf("sub edge %d: %+v, want %+v", i, *e, *w)
		}
	}
	return nil
}

// TestExtractMatchesWholeGraphWalk holds the adjacency walk to the
// whole-graph oracle on the view graphs plus a feedback loop and a
// multi-edge, over every contiguous window and every two-node set — most of
// the latter non-convex or disconnected, some cutting the loop's delay edge
// — demanding the same error or the same extraction.
func TestExtractMatchesWholeGraphWalk(t *testing.T) {
	acc := NewFilter("Acc", 2, 2, 0, 3, func(w *Work) {
		s := w.In[0][0] + w.In[0][1]
		w.Out[0][0], w.Out[0][1] = s, s
	})
	loop := mustGraph(t, "loop", Pipe("p", F(addOne()),
		LoopOf("acc", RoundRobinJoiner([]int{1, 1}), F(acc), RoundRobinSplitter([]int{1, 1}), F(double()), []Token{0, 0}),
		F(downsample2())))
	// Two parallel edges between one node pair, wired against port order so
	// the members' adjacency slices disagree with parent edge-id order.
	b := NewBuilder("multi")
	src, split := b.AddNode(addOne(), -1), b.AddNode(RoundRobinSplitter([]int{1, 1}), -1)
	join, dst := b.AddNode(RoundRobinJoiner([]int{1, 1}), -1), b.AddNode(double(), -1)
	b.Connect(join, 0, dst, 0)
	b.Connect(split, 1, join, 1)
	b.Connect(split, 0, join, 0)
	b.Connect(src, 0, split, 0)
	multi, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range append(viewGraphs(t), loop, multi) {
		sets := enumerateSets(t, g)
		for a := 0; a < g.NumNodes(); a++ {
			for b := a + 1; b < g.NumNodes(); b++ {
				pair := NewNodeSet(g.NumNodes())
				pair.Add(NodeID(a))
				pair.Add(NodeID(b))
				sets = append(sets, pair)
			}
		}
		sets = append(sets, NewNodeSet(g.NumNodes())) // empty: both refuse
		for _, set := range sets {
			got, gotErr := g.Extract(set.Members())
			want, wantErr := extractWholeGraph(g, set)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s %v: error %v, oracle %v", g.Name, set, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if err := sameExtraction(got, want); err != nil {
				t.Fatalf("%s %v: %v", g.Name, set, err)
			}
		}
	}
}
