package sdf

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// bigSteady is the referee for Steady: the math/big solver it replaced,
// returning the vector instead of storing it. wide reports whether some rate
// it assigned before finishing or failing has a numerator or denominator
// past int64 — the one case in which Steady may name a different error.
func bigSteady(g *Graph) (rep []int64, wide bool, err error) {
	n := len(g.Nodes)
	if n == 0 {
		return nil, false, fmt.Errorf("sdf: graph %s is empty", g.Name)
	}
	rate := make([]*big.Rat, n)
	type arc struct {
		to    NodeID
		ratio *big.Rat // rate[to] = rate[from] * ratio
	}
	adj := make([][]arc, n)
	for _, e := range g.Edges {
		fwd := new(big.Rat).SetFrac64(int64(e.Push), int64(e.Pop))
		bwd := new(big.Rat).SetFrac64(int64(e.Pop), int64(e.Push))
		adj[e.Src] = append(adj[e.Src], arc{e.Dst, fwd})
		adj[e.Dst] = append(adj[e.Dst], arc{e.Src, bwd})
	}
	for start := 0; start < n; start++ {
		if rate[start] != nil {
			continue
		}
		rate[start] = big.NewRat(1, 1)
		stack := []NodeID{NodeID(start)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range adj[u] {
				want := new(big.Rat).Mul(rate[u], a.ratio)
				if rate[a.to] == nil {
					rate[a.to] = want
					wide = wide || !want.Num().IsInt64() || !want.Denom().IsInt64()
					stack = append(stack, a.to)
				} else if rate[a.to].Cmp(want) != 0 {
					return nil, wide, fmt.Errorf("sdf: graph %s is inconsistent at %s -> %s (no steady state)",
						g.Name, g.Nodes[u].Filter.Name, g.Nodes[a.to].Filter.Name)
				}
			}
		}
	}
	lcm := big.NewInt(1)
	for _, r := range rate {
		d := new(big.Int).GCD(nil, nil, lcm, r.Denom())
		lcm.Mul(lcm, new(big.Int).Div(r.Denom(), d))
	}
	counts := make([]*big.Int, n)
	gcd := new(big.Int)
	for i, r := range rate {
		counts[i] = new(big.Int).Mul(r.Num(), new(big.Int).Div(lcm, r.Denom()))
		gcd.GCD(nil, nil, gcd, counts[i])
	}
	rep = make([]int64, n)
	for i, v := range counts {
		q := new(big.Int).Div(v, gcd)
		if !q.IsInt64() || q.Int64() <= 0 {
			return nil, wide, fmt.Errorf("sdf: graph %s: repetition count overflow or non-positive at node %d", g.Name, i)
		}
		rep[i] = q.Int64()
	}
	return rep, wide, nil
}

// rateGraph is a random multigraph: nodes filters of one to three input
// and output ports with rates below 2^rateBits, and up to edges channels,
// each wiring a random free output port to a random free input port (self
// loops included). Few edges leave several weakly connected components;
// many close undirected loops, most of them inconsistent; wide rates
// overflow.
func rateGraph(seed int64, nodes, edges, rateBits uint8) *Graph {
	r := rand.New(rand.NewSource(seed))
	maxRate := int64(1) << (rateBits % 40)
	rate := func() int { return 1 + int(r.Int63n(maxRate)) }
	b := NewBuilder(fmt.Sprintf("rates%d", seed))
	type port struct {
		node NodeID
		p    int
	}
	var outs, ins []port
	for i := range 1 + int(nodes%24) {
		f := &Filter{Name: fmt.Sprintf("f%d", i)}
		for range 1 + r.Intn(3) {
			pop := rate()
			f.Inputs = append(f.Inputs, InRate{Pop: pop, Peek: pop})
		}
		for range 1 + r.Intn(3) {
			f.Outputs = append(f.Outputs, rate())
		}
		id := b.AddNode(f, -1)
		for p := range f.Inputs {
			ins = append(ins, port{id, p})
		}
		for p := range f.Outputs {
			outs = append(outs, port{id, p})
		}
	}
	for range int(edges % 48) {
		if len(outs) == 0 || len(ins) == 0 {
			break
		}
		i, j := r.Intn(len(outs)), r.Intn(len(ins))
		b.Connect(outs[i].node, outs[i].p, ins[j].node, ins[j].p)
		outs = slices.Delete(outs, i, i+1)
		ins = slices.Delete(ins, j, j+1)
	}
	return b.g
}

// steadyOutcome classifies one differential check for coverage counting.
type steadyOutcome int

const (
	solvedOne    steadyOutcome = iota // solved, one weakly connected component
	solvedMany                        // solved, several components scaled together
	inconsistent                      // both report the same inconsistency
	overflowed                        // both report the same overflow
	wideRates                         // a rate left int64: Steady stops at it
)

// checkSteady runs Steady and bigSteady on g and fails t unless they agree:
// the same vector, or the same error text, or — only where a rate itself
// left int64 — an overflow error from Steady where bigSteady also fails.
func checkSteady(t *testing.T, g *Graph) steadyOutcome {
	t.Helper()
	err := g.Steady()
	rep := g.rep
	g.rep = nil
	want, wide, wantErr := bigSteady(g)
	switch {
	case err == nil && wantErr == nil:
		if !slices.Equal(rep, want) {
			t.Fatalf("%s: Steady = %v, math/big says %v", g.Name, rep, want)
		}
		if components(g) > 1 {
			return solvedMany
		}
		return solvedOne
	case err != nil && wantErr != nil && err.Error() == wantErr.Error():
		if strings.Contains(err.Error(), "inconsistent") {
			return inconsistent
		}
		return overflowed
	case wide && err != nil && wantErr != nil && strings.Contains(err.Error(), "overflow"):
		return wideRates
	}
	t.Fatalf("%s: Steady error %v, math/big error %v (a rate past int64: %v)", g.Name, err, wantErr, wide)
	return 0
}

// components counts g's weakly connected components.
func components(g *Graph) int {
	parent := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	count := len(g.Nodes)
	for _, e := range g.Edges {
		if a, b := find(int(e.Src)), find(int(e.Dst)); a != b {
			parent[a] = b
			count--
		}
	}
	return count
}

// FuzzSteady holds the int64 balance solver to the math/big one it
// replaced, on random rate graphs (see rateGraph and checkSteady).
func FuzzSteady(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(5), uint8(2))
	f.Add(int64(2), uint8(12), uint8(30), uint8(3))
	f.Add(int64(3), uint8(20), uint8(12), uint8(36))
	f.Add(int64(4), uint8(23), uint8(47), uint8(39))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edges, rateBits uint8) {
		checkSteady(t, rateGraph(seed, nodes, edges, rateBits))
	})
}

// TestSteadyMatchesBig sweeps rate graphs through checkSteady and requires
// every outcome — one component, several scaled together, inconsistency,
// overflow in the final scaling, a rate past int64 — to occur.
func TestSteadyMatchesBig(t *testing.T) {
	var seen [wideRates + 1]int
	for seed := range int64(3000) {
		r := rand.New(rand.NewSource(seed))
		g := rateGraph(seed, uint8(r.Intn(24)), uint8(r.Intn(48)), uint8(r.Intn(40)))
		seen[checkSteady(t, g)]++
	}
	t.Logf("one component %d, several %d, inconsistent %d, overflow %d, wide rates %d",
		seen[solvedOne], seen[solvedMany], seen[inconsistent], seen[overflowed], seen[wideRates])
	for o, c := range seen {
		if c < 10 {
			t.Errorf("outcome %d occurred %d times, want ≥ 10", o, c)
		}
	}
}

// TestSteadyScalesComponentsTogether pins the multi-component rule: the
// components share one scaling, so a component can come out above its own
// minimal vector. With b popping 3, {a,b} is minimal at (3,1) and sets the
// scaling 3, and {c,d}, minimal at (1,2), comes out (3,6).
func TestSteadyScalesComponentsTogether(t *testing.T) {
	two := func(pop1, pop2 int) (*Graph, error) {
		b := NewBuilder("two")
		b.Connect(b.AddNode(NewSource("a", 1, 1, nil), -1), 0, b.AddNode(NewSink("b", pop1, 1, nil), -1), 0)
		b.Connect(b.AddNode(NewSource("c", 2, 1, nil), -1), 0, b.AddNode(NewSink("d", pop2, 1, nil), -1), 0)
		return b.Graph()
	}
	g, err := two(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.rep; !slices.Equal(got, []int64{1, 1, 1, 2}) {
		t.Errorf("rep = %v, want [1 1 1 2]", got)
	}
	if g, err = two(3, 1); err != nil {
		t.Fatal(err)
	}
	if got := g.rep; !slices.Equal(got, []int64{3, 1, 3, 6}) {
		t.Errorf("rep = %v, want [3 1 3 6]", got)
	}
	// Each component fits on its own ((2^62, 1) and (3, 2)), but their
	// shared scaling is 3*2^62: node 0's count overflows.
	_, err = two(1<<62, 3)
	if err == nil || !strings.Contains(err.Error(), "overflow or non-positive at node 0") {
		t.Errorf("err = %v, want an overflow at node 0", err)
	}
}
