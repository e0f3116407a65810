package synth

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"streammap/internal/driver"
	"streammap/internal/sdf"
)

// checkExtractionAgainstEdgeList is the whole-graph oracle for sdf.Extract,
// written against the public graph API: it walks every edge of the parent in
// edge-list order — the walk Extract used to do per partition — and demands
// that s lists exactly those internal and cut edges, in that order, over the
// gcd-normalized restriction of the parent's repetition vector. The member
// set is rebuilt from NodeOf, which must ascend, and the sub's name must be
// the parent's name plus that set's String form: the simulator hashes it.
func checkExtractionAgainstEdgeList(g *sdf.Graph, s *sdf.Subgraph) error {
	set := sdf.NewNodeSet(g.NumNodes())
	for _, m := range s.NodeOf {
		set.Add(m)
	}
	members := set.Members()
	if !slices.Equal(s.NodeOf, members) {
		return fmt.Errorf("NodeOf %v, want the set's members %v", s.NodeOf, members)
	}
	if want := g.Name + set.String(); s.Sub.Name != want {
		return fmt.Errorf("name %q, want %q", s.Sub.Name, want)
	}
	if s.Sub.NumNodes() != len(members) {
		return fmt.Errorf("%d sub nodes for %d members", s.Sub.NumNodes(), len(members))
	}
	subOf := make(map[sdf.NodeID]sdf.NodeID, len(members))
	var gcd int64
	for i, pid := range members {
		subOf[pid] = sdf.NodeID(i)
		if s.Sub.Nodes[i].Filter != g.Nodes[pid].Filter {
			return fmt.Errorf("sub node %d does not carry parent node %d's filter", i, pid)
		}
		for r := g.Rep(pid); r != 0; { // gcd = gcd(gcd, rep), by Euclid
			gcd, r = r, gcd%r
		}
	}
	if s.Scale != gcd {
		return fmt.Errorf("scale %d, want %d", s.Scale, gcd)
	}
	for i, pid := range members {
		if got, want := s.Sub.Rep(sdf.NodeID(i)), g.Rep(pid)/gcd; got != want {
			return fmt.Errorf("sub node %d rep %d, want %d", i, got, want)
		}
	}
	var cutIn, cutOut []sdf.BoundaryEdge
	internal := 0
	for _, e := range g.Edges {
		srcIn, dstIn := set.Has(e.Src), set.Has(e.Dst)
		switch {
		case srcIn && dstIn:
			if internal >= len(s.Sub.Edges) {
				return fmt.Errorf("parent edge %d is internal but the sub has only %d edges", e.ID, len(s.Sub.Edges))
			}
			se := s.Sub.Edges[internal]
			if se.ID != sdf.EdgeID(internal) || se.Src != subOf[e.Src] || se.Dst != subOf[e.Dst] ||
				se.SrcPort != e.SrcPort || se.DstPort != e.DstPort ||
				se.Push != e.Push || se.Pop != e.Pop || se.Peek != e.Peek ||
				!slices.Equal(se.Initial, e.Initial) {
				return fmt.Errorf("sub edge %d is %+v, want parent edge %d %+v", internal, *se, e.ID, *e)
			}
			if s.Sub.Nodes[se.Src].Out(se.SrcPort) != se.ID || s.Sub.Nodes[se.Dst].In(se.DstPort) != se.ID {
				return fmt.Errorf("sub edge %d is not wired at its endpoints' ports", internal)
			}
			internal++
		case srcIn:
			cutOut = append(cutOut, sdf.BoundaryEdge{Orig: e.ID, Port: sdf.PortRef{Node: subOf[e.Src], Port: e.SrcPort}})
		case dstIn:
			cutIn = append(cutIn, sdf.BoundaryEdge{Orig: e.ID, Port: sdf.PortRef{Node: subOf[e.Dst], Port: e.DstPort}})
		}
	}
	if internal != len(s.Sub.Edges) {
		return fmt.Errorf("%d sub edges, want %d", len(s.Sub.Edges), internal)
	}
	if !slices.Equal(s.CutIn, cutIn) {
		return fmt.Errorf("CutIn %v, want %v", s.CutIn, cutIn)
	}
	if !slices.Equal(s.CutOut, cutOut) {
		return fmt.Errorf("CutOut %v, want %v", s.CutOut, cutOut)
	}
	// Every sub port not wired to an internal edge is primary: the cut lists
	// and the parent's own primary ports account for all of them.
	wired := 0
	for i, n := range s.Sub.Nodes {
		pn := g.Nodes[members[i]]
		for p := range n.Filter.Inputs {
			if n.In(p) != -1 {
				wired++
			} else if pe := pn.In(p); pe != -1 && set.Has(g.Edges[pe].Src) {
				return fmt.Errorf("sub node %d input %d is unwired but parent edge %d is internal", i, p, pe)
			}
		}
		for p := range n.Filter.Outputs {
			if n.Out(p) != -1 {
				wired++
			} else if pe := pn.Out(p); pe != -1 && set.Has(g.Edges[pe].Dst) {
				return fmt.Errorf("sub node %d output %d is unwired but parent edge %d is internal", i, p, pe)
			}
		}
	}
	if wired != 2*internal {
		return fmt.Errorf("%d wired sub ports for %d internal edges", wired, internal)
	}
	return nil
}

// TestExtractMatchesEdgeListOnCorpus holds sdf.Extract's member-port walk to
// the whole-graph oracle on every final partition of the differential corpus
// and of one multilevel-corpus graph: split-join fan-out, rate changes and
// feedback loops whose delay edges end up inside and across partitions.
func TestExtractMatchesEdgeListOnCorpus(t *testing.T) {
	corpus, err := Corpus(CorpusParams{Seed: 0x5EED, Scenarios: corpusSize, MaxFilters: 28, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := append(corpus, mlScenario(t, 11, 1000, 2))
	scenarios[len(scenarios)-1].Opts.Partitioner = driver.MultilevelPart
	ctx := context.Background()
	var parts, delayed int
	for _, sc := range scenarios {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		c, err := driver.Compile(ctx, g, sc.Opts)
		if err != nil {
			continue // an agreed rejection (TestDifferentialCorpus); nothing was extracted
		}
		for pi, p := range c.Parts.Parts {
			sub, err := c.Graph.Extract(p.Members)
			if err != nil {
				t.Fatalf("scenario %s partition %d %v: %v", sc.Name, pi, p.Members, err)
			}
			if err := checkExtractionAgainstEdgeList(c.Graph, sub); err != nil {
				t.Errorf("scenario %s partition %d %v: %v", sc.Name, pi, p.Members, err)
			}
			parts++
			for _, e := range sub.Sub.Edges {
				if len(e.Initial) > 0 {
					delayed++
				}
			}
		}
	}
	if parts < corpusSize || delayed == 0 {
		t.Errorf("vacuous: %d partitions checked, %d internal delay edges among them", parts, delayed)
	}
}

// TestSubgraphNameOrder pins the member order inside a subgraph's name: ids
// sort as decimal strings, so from 10 on it differs from numeric order, and
// the name-rendering helper must agree with NodeSet.String there.
func TestSubgraphNameOrder(t *testing.T) {
	ids := []sdf.NodeID{1, 2, 10, 11, 100}
	set := sdf.NewNodeSet(128)
	for _, id := range ids {
		set.Add(id)
	}
	const want = "{1,10,100,11,2}"
	if got := sdf.FormatMembers(ids); got != want || set.String() != want {
		t.Errorf("FormatMembers %s, NodeSet.String %s, want %s", got, set.String(), want)
	}
}
