package sdf

import "testing"

// viewGraphs builds a small family of shapes covering the view's edge
// cases: plain pipelines, rate changes (non-trivial scale), split-joins
// (primary port multiplicity), sliding windows and delay tokens
// (persistent buffers, cycle-breaking rule).
func viewGraphs(t *testing.T) []*Graph {
	t.Helper()
	movSum := NewFilter("MovSum", 1, 1, 3, 3, func(w *Work) {
		w.Out[0][0] = w.In[0][0] + w.In[0][1] + w.In[0][2]
	})
	return []*Graph{
		mustGraph(t, "pipe", Pipe("p", F(addOne()), F(double()), F(addOne()))),
		mustGraph(t, "mix", Pipe("p", F(addOne()), F(downsample2()), F(double()))),
		mustGraph(t, "sj", Pipe("p", F(addOne()),
			SplitDupRR("sj", 1, []int{1, 1}, F(double()), F(addOne())),
			F(double()))),
		mustGraph(t, "peek", Pipe("p", F(addOne()), WithDelay(F(movSum), []Token{1, 2}), F(double()))),
	}
}

// enumerateSets yields every contiguous window over the topological order
// plus all singletons — enough shapes to cross every branch of the view.
func enumerateSets(t *testing.T, g *Graph) []NodeSet {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var sets []NodeSet
	for start := range order {
		w := NewNodeSet(g.NumNodes())
		for size := 0; start+size < len(order); size++ {
			w.Add(order[start+size])
			sets = append(sets, w.Clone())
		}
	}
	return sets
}

// TestSubViewMatchesExtract pins the view against the materializing path:
// members, normalized reps, scale, acyclicity and primary I/O bytes must
// agree with Extract on every candidate set.
func TestSubViewMatchesExtract(t *testing.T) {
	for _, g := range viewGraphs(t) {
		var v SubView
		for _, set := range enumerateSets(t, g) {
			sub, err := g.Extract(set.Members())
			if err != nil {
				t.Fatalf("%s %v: extract: %v", g.Name, set, err)
			}
			v.Fill(g, set.Members())
			if v.NumNodes() != sub.Sub.NumNodes() {
				t.Fatalf("%s %v: view %d nodes, sub %d", g.Name, set, v.NumNodes(), sub.Sub.NumNodes())
			}
			if v.Scale != sub.Scale {
				t.Fatalf("%s %v: view scale %d, sub %d", g.Name, set, v.Scale, sub.Scale)
			}
			for i, pid := range v.Members() {
				if pid != sub.NodeOf[i] {
					t.Fatalf("%s %v: member %d is %d, sub has %d", g.Name, set, i, pid, sub.NodeOf[i])
				}
				if v.RepAt(i) != sub.Sub.Rep(NodeID(i)) {
					t.Fatalf("%s %v: member %d rep %d, sub %d", g.Name, set, i, v.RepAt(i), sub.Sub.Rep(NodeID(i)))
				}
			}
			if got, want := v.IOBytesPerIteration(), subgraphIOBytes(sub); got != want {
				t.Fatalf("%s %v: view IO %d, sub %d", g.Name, set, got, want)
			}
			_, topoErr := sub.Sub.TopoOrder()
			if v.Acyclic() != (topoErr == nil) {
				t.Fatalf("%s %v: view acyclic %v, sub topo err %v", g.Name, set, v.Acyclic(), topoErr)
			}
		}
	}
}

// TestSubViewReuse checks that one view instance refilled across sets keeps
// no stale state: its membership test included, which reads positions a
// previous fill left behind.
func TestSubViewReuse(t *testing.T) {
	g := mustGraph(t, "pipe", Pipe("p", F(addOne()), F(downsample2()), F(double()), F(addOne())))
	var v SubView
	sets := enumerateSets(t, g)
	// Interleave big and small fills to stress buffer reuse.
	for i := 0; i < len(sets); i++ {
		for _, set := range []NodeSet{sets[i], sets[len(sets)-1-i]} {
			sub, err := g.Extract(set.Members())
			if err != nil {
				t.Fatal(err)
			}
			v.Fill(g, set.Members())
			if v.Scale != sub.Scale || v.NumNodes() != sub.Sub.NumNodes() ||
				v.IOBytesPerIteration() != subgraphIOBytes(sub) {
				t.Fatalf("set %v: refilled view diverged from Extract", set)
			}
			for id := NodeID(0); int(id) < g.NumNodes(); id++ {
				if v.Has(id) != set.Has(id) {
					t.Fatalf("set %v: refilled view says Has(%d) = %v", set, id, v.Has(id))
				}
			}
		}
	}
}
