package sdf

import (
	"fmt"
	"math"
	"math/bits"
)

// Steady solves the SDF balance equations and stores the minimal positive
// integer repetition vector on the graph. For every edge (u,v) the solution
// satisfies rep[u]*push == rep[v]*pop; the graph is inconsistent (no
// steady-state schedule exists) if the equations conflict on some cycle or
// undirected loop. Builder.Graph calls it, so a built graph already has its
// vector: a second call re-solves and stores the same one.
//
// Each weakly connected component is walked from its lowest node id at rate
// 1, and every other node's rate is a reduced int64 fraction of it; DESIGN
// S2 shows why neither a rate nor the final scaling overflows while the
// repetition vector itself fits in int64.
func (g *Graph) Steady() error {
	n := len(g.Nodes)
	if n == 0 {
		return fmt.Errorf("sdf: graph %s is empty", g.Name)
	}
	overflow := func(id int) error {
		return fmt.Errorf("sdf: graph %s: repetition count overflow or non-positive at node %d", g.Name, id)
	}

	// Arcs of the undirected version of the graph, chained per node in edge
	// order: arc 2e+1 runs edge e forward (rep[dst] = rep[src]*push/pop),
	// arc 2e+2 backward; 0 ends a chain.
	head := make([]int32, n)
	next := make([]int32, 2*len(g.Edges)+1)
	for i := len(g.Edges) - 1; i >= 0; i-- {
		e := g.Edges[i]
		next[2*i+2], head[e.Dst] = head[e.Dst], int32(2*i+2)
		next[2*i+1], head[e.Src] = head[e.Src], int32(2*i+1)
	}

	num := make([]int64, n) // rate[v] = num[v]/den[v], reduced; 0: not reached
	den := make([]int64, n)
	var stack []NodeID
	for start := range n {
		if num[start] != 0 {
			continue
		}
		num[start], den[start] = 1, 1
		stack = append(stack[:0], NodeID(start))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for arc := head[u]; arc != 0; arc = next[arc] {
				e := g.Edges[(arc-1)/2]
				to, p, q := e.Dst, int64(e.Push), int64(e.Pop)
				if arc%2 == 0 {
					to, p, q = e.Src, q, p
				}
				wn, wd, ok := mulRate(num[u], den[u], p, q)
				switch {
				case num[to] == 0 && ok:
					num[to], den[to] = wn, wd
					stack = append(stack, to)
				case num[to] == 0:
					return overflow(int(to))
				case !ok || wn != num[to] || wd != den[to]:
					// A product past int64 cannot equal a rate that fits.
					return fmt.Errorf("sdf: graph %s is inconsistent at %s -> %s (no steady state)",
						g.Name, g.Nodes[u].Filter.Name, g.Nodes[to].Filter.Name)
				}
			}
		}
	}

	// Scale to the minimal integer vector: multiply by the lcm of the
	// denominators. Node 0 starts a component at rate 1, so its count is
	// that lcm, and the counts' gcd is already 1 (DESIGN S2).
	lcm := int64(1)
	for _, d := range den {
		var ok bool
		if lcm, ok = mul63(lcm/GCD(lcm, d), d); !ok {
			return overflow(0)
		}
	}
	out := make([]int64, n)
	for i := range out {
		v, ok := mul63(num[i], lcm/den[i])
		if !ok {
			return overflow(i)
		}
		out[i] = v
	}
	g.rep = out
	return nil
}

// mulRate returns the reduced product of the reduced fraction a/b and p/q,
// cross-reducing before multiplying so no product exceeds the result; ok is
// false when the numerator or denominator does not fit in int64.
func mulRate(a, b, p, q int64) (num, den int64, ok bool) {
	if p == q {
		return a, b, true
	}
	if r := GCD(p, q); r > 1 {
		p, q = p/r, q/r
	}
	if r := GCD(a, q); r > 1 {
		a, q = a/r, q/r
	}
	if r := GCD(p, b); r > 1 {
		p, b = p/r, b/r
	}
	num, ok1 := mul63(a, p)
	den, ok2 := mul63(b, q)
	return num, den, ok1 && ok2
}

// mul63 returns x*y for positive x and y, and whether it fits in int64.
func mul63(x, y int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// GCD returns the greatest common divisor of two non-negative counts, with
// GCD(0, x) == x.
func GCD(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
