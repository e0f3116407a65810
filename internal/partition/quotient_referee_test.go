package partition_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streammap/internal/partition"
	"streammap/internal/sdf"
)

// closure is the brute-force referee for the multilevel path's quotient
// searches: plain adjacency of one level's units, built from the graph's
// edges, and unpruned whole-graph walks over it.
type closure struct {
	succ, pred [][]int32
}

func newClosure(g *sdf.Graph, lvl *partition.CoarseLevel) *closure {
	c := &closure{succ: make([][]int32, lvl.NumUnits), pred: make([][]int32, lvl.NumUnits)}
	for _, e := range g.Edges {
		a, b := lvl.UnitOf[e.Src], lvl.UnitOf[e.Dst]
		if a != b && !slices.Contains(c.succ[a], b) {
			c.succ[a] = append(c.succ[a], b)
			c.pred[b] = append(c.pred[b], a)
		}
	}
	return c
}

// reach marks every unit reachable along adj by at least one edge from a
// member of in.
func reach(adj [][]int32, in []bool) []bool {
	seen := make([]bool, len(adj))
	var stack []int32
	for u, ok := range in {
		if ok {
			stack = append(stack, int32(u))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// convex: no outside unit is both reachable from the set and reaches it.
func (c *closure) convex(set []int32) bool {
	in := make([]bool, len(c.succ))
	for _, u := range set {
		in[u] = true
	}
	from, to := reach(c.succ, in), reach(c.pred, in)
	for u := range in {
		if !in[u] && from[u] && to[u] {
			return false
		}
	}
	return true
}

// connected: the set is one weakly connected component of itself.
func (c *closure) connected(set []int32) bool {
	in := make(map[int32]bool, len(set))
	for _, u := range set {
		in[u] = true
	}
	seen := map[int32]bool{set[0]: true}
	stack := []int32{set[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range append(slices.Clone(c.succ[u]), c.pred[u]...) {
			if in[v] && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return len(seen) == len(set)
}

// randomGroups cuts the level's units into convex, connected groups of up to
// twelve units, each grown from a random seed through random neighbours —
// large enough to hold whole split-joins, whose arms are the removals that
// leave a part connected but not convex.
func (c *closure) randomGroups(rng *rand.Rand) [][]int32 {
	U := len(c.succ)
	assigned := make([]bool, U)
	var groups [][]int32
	for _, s := range rng.Perm(U) {
		if assigned[s] {
			continue
		}
		group := []int32{int32(s)}
		assigned[s] = true
		for size := 1 + rng.Intn(12); len(group) < size; {
			var cands []int32
			for _, u := range group {
				for _, v := range append(slices.Clone(c.succ[u]), c.pred[u]...) {
					if !assigned[v] && !slices.Contains(cands, v) {
						cands = append(cands, v)
					}
				}
			}
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			grown := false
			for _, v := range cands {
				if c.convex(append(slices.Clone(group), v)) {
					group = append(group, v)
					assigned[v] = true
					grown = true
					break
				}
			}
			if !grown {
				break
			}
		}
		slices.Sort(group)
		groups = append(groups, group)
	}
	return groups
}

// TestQuotientSearchMatchesClosure holds every structural verdict of the
// multilevel path — pair and triple merge convexity, removal (connected and
// convex) and addition convexity — to the brute-force closure, on every
// level of two synthetic graphs cut into random convex, connected parts.
// Each verdict must come out both ways somewhere, and so must convexity
// among removals that keep the part connected, or the comparison proves
// nothing.
func TestQuotientSearchMatchesClosure(t *testing.T) {
	type tally struct{ yes, no int }
	counts := map[string]*tally{"pair": {}, "triple": {}, "remove": {}, "connected remove": {}, "add": {}}
	count := func(kind string, ok bool) {
		if ok {
			counts[kind].yes++
		} else {
			counts[kind].no++
		}
	}
	failures := 0
	check := func(kind string, got, want bool, what string) {
		count(kind, want)
		if got != want && failures < 10 {
			failures++
			t.Errorf("%s: search says %v, closure says %v", what, got, want)
		}
	}
	for _, tc := range []struct {
		seed    uint64
		filters int
	}{{21, 600}, {22, 900}} {
		g := synthGraph(t, tc.seed, tc.filters)
		c, err := partition.BuildCoarsening(g, partition.CoarsenOptions{CoreSize: 32}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.seed)))
		for li, lvl := range c.Levels {
			cl := newClosure(g, lvl)
			groups := cl.randomGroups(rng)
			probe, err := partition.NewQuotientProbe(g, lvl, groups)
			if err != nil {
				t.Fatal(err)
			}
			partOf := make([]int32, lvl.NumUnits)
			for i, grp := range groups {
				for _, u := range grp {
					partOf[u] = int32(i)
				}
			}
			at := func(format string, args ...any) string {
				return fmt.Sprintf("seed %d level %d: ", tc.seed, li) + fmt.Sprintf(format, args...)
			}
			for a, grp := range groups {
				A := int32(a)
				var adj []int32
				for _, u := range grp {
					for _, v := range append(slices.Clone(cl.succ[u]), cl.pred[u]...) {
						if Q := partOf[v]; Q != A {
							if !slices.Contains(adj, Q) {
								adj = append(adj, Q)
							}
							check("add", probe.AddConvex(Q, u), cl.convex(append(slices.Clone(groups[Q]), u)),
								at("add unit %d to part %v", u, groups[Q]))
						}
					}
					if len(grp) > 1 {
						rest := slices.DeleteFunc(slices.Clone(grp), func(x int32) bool { return x == u })
						conn, convex := cl.connected(rest), cl.convex(rest)
						if conn {
							count("connected remove", convex)
						}
						check("remove", probe.RemoveOK(A, u), conn && convex, at("remove unit %d from part %v", u, grp))
					}
				}
				slices.Sort(adj)
				for x, B := range adj {
					check("pair", probe.PairConvex(A, B), cl.convex(slices.Concat(grp, groups[B])), at("merge %v and %v", grp, groups[B]))
					for _, C := range adj[x+1:] {
						check("triple", probe.TripleConvex(A, B, C),
							cl.convex(slices.Concat(grp, groups[B], groups[C])), at("merge %v, %v and %v", grp, groups[B], groups[C]))
					}
				}
			}
			t.Logf("seed %d level %d: %d units in %d parts", tc.seed, li, lvl.NumUnits, len(groups))
		}
	}
	for kind, n := range counts {
		t.Logf("%s: %d yes, %d no", kind, n.yes, n.no)
		if n.yes == 0 || n.no == 0 {
			t.Errorf("%s verdicts never came out both ways (%d yes, %d no)", kind, n.yes, n.no)
		}
	}
}
