package sdf

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// NodeSet is a fixed-capacity bitset over the node ids of one graph. The
// zero value is unusable; create with NewNodeSet(g.NumNodes()).
type NodeSet struct {
	words []uint64
	n     int
}

// NewNodeSet returns an empty set with capacity for n nodes.
func NewNodeSet(n int) NodeSet {
	return NodeSet{words: make([]uint64, (n+63)/64), n: n}
}

// SingletonSet returns {id} with capacity n.
func SingletonSet(n int, id NodeID) NodeSet {
	s := NewNodeSet(n)
	s.Add(id)
	return s
}

// Cap returns the set's node capacity.
func (s NodeSet) Cap() int { return s.n }

// Add inserts id.
func (s NodeSet) Add(id NodeID) { s.words[id/64] |= 1 << (uint(id) % 64) }

// Remove deletes id.
func (s NodeSet) Remove(id NodeID) { s.words[id/64] &^= 1 << (uint(id) % 64) }

// Has reports membership.
func (s NodeSet) Has(id NodeID) bool {
	return id >= 0 && int(id) < s.n && s.words[id/64]&(1<<(uint(id)%64)) != 0
}

// Len returns the number of members.
func (s NodeSet) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s NodeSet) Clone() NodeSet {
	return NodeSet{words: append([]uint64(nil), s.words...), n: s.n}
}

// Reset empties the set in place.
func (s NodeSet) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// CopyFrom overwrites s with the contents of t (same capacity assumed).
func (s NodeSet) CopyFrom(t NodeSet) { copy(s.words, t.words) }

// UnionWith adds all members of t (same capacity assumed).
func (s NodeSet) UnionWith(t NodeSet) {
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Equal reports set equality.
func (s NodeSet) Equal(t NodeSet) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// HashMembers returns a 64-bit identity of an ascending member list: a
// splitmix64-style mix of the length and then each id in turn. Equal lists
// hash equally; distinct lists collide only with ordinary 64-bit-hash
// probability, so a map keyed by it must compare the lists within a bucket
// (see pee's memo).
func HashMembers(members []NodeID) uint64 {
	h := uint64(len(members))*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for _, id := range members {
		h = hashMix(h, uint64(id))
	}
	return h
}

// hashMix folds w into h with the splitmix64 finaliser.
func hashMix(h, w uint64) uint64 {
	h ^= w
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

// ForEach calls fn for each member in ascending order.
func (s NodeSet) ForEach(fn func(NodeID)) {
	for i, w := range s.words {
		for w != 0 {
			fn(NodeID(i*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// AppendMembers appends the member ids in ascending order to dst and returns
// the extended slice (allocation-free when dst has capacity).
func (s NodeSet) AppendMembers(dst []NodeID) []NodeID {
	for i, w := range s.words {
		for w != 0 {
			dst = append(dst, NodeID(i*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Members returns the member ids in ascending order.
func (s NodeSet) Members() []NodeID { return s.AppendMembers(nil) }

// String renders the set as {a,b,c}; see FormatMembers.
func (s NodeSet) String() string { return FormatMembers(s.Members()) }

// FormatMembers renders a node id list as {a,b,c}, the ids sorted as
// decimal strings ({1,10,2}) whatever their order in ids. An extracted
// subgraph's name is its parent's name plus this form of its members, and
// the simulator hashes that name, so the order is part of every plan.
func FormatMembers(ids []NodeID) string {
	parts := make([]string, len(ids))
	for i, m := range ids {
		parts[i] = strconv.Itoa(int(m))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// IsConnected reports whether the members of set form a weakly connected
// subgraph of g.
func (g *Graph) IsConnected(set NodeSet) bool {
	return g.NewConvexChecker().IsConnected(set)
}

// ConvexChecker answers IsConvex and IsConnected queries against one graph
// while reusing its traversal buffers, so repeated checks (the partitioner's
// Try-Merge scan, a result's validation) allocate nothing. Not safe for
// concurrent use; the partitioner holds one.
type ConvexChecker struct {
	g     *Graph
	rank  []int32 // the graph's SCC ranks, fetched by the first IsConvex
	seen  NodeSet
	stack []NodeID
}

// NewConvexChecker returns a reusable checker for g.
func (g *Graph) NewConvexChecker() *ConvexChecker {
	return &ConvexChecker{g: g, seen: NewNodeSet(len(g.Nodes))}
}

// IsConvex reports whether set is convex in c's graph; see Graph.IsConvex.
//
// The set is not convex iff some path leaves it and re-enters it through
// non-members only. SCC ranks never fall along an edge, so every node of
// such a path ranks at most the member it re-enters, hence at most the
// set's highest member rank. One forward search from the set, through
// non-members no higher than that rank, therefore meets every such path,
// and it stops at the first edge back into the set.
func (c *ConvexChecker) IsConvex(set NodeSet) bool {
	if c.rank == nil {
		c.rank = c.g.sccRank()
	}
	adj := c.g.adj()
	stack := set.AppendMembers(c.stack[:0])
	top := int32(-1)
	for _, m := range stack {
		top = max(top, c.rank[m])
	}
	c.seen.Reset()
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj.succOf(u) {
			switch {
			case !set.Has(v):
				if c.rank[v] <= top && !c.seen.Has(v) {
					c.seen.Add(v)
					stack = append(stack, v)
				}
			case !set.Has(u):
				c.stack = stack[:0]
				return false // u was reached from the set and leads back in
			}
		}
	}
	c.stack = stack[:0]
	return true
}

// IsConnected reports whether set is weakly connected in c's graph; see
// Graph.IsConnected.
func (c *ConvexChecker) IsConnected(set NodeSet) bool {
	n := set.Len()
	if n <= 1 {
		return n == 1
	}
	adj := c.g.adj()
	first := NodeID(-1)
	set.ForEach(func(m NodeID) {
		if first < 0 {
			first = m
		}
	})
	seen := c.seen
	seen.Reset()
	seen.Add(first)
	stack := append(c.stack[:0], first)
	count := 1
	visit := func(v NodeID) {
		if set.Has(v) && !seen.Has(v) {
			seen.Add(v)
			count++
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj.succOf(u) {
			visit(v)
		}
		for _, v := range adj.predOf(u) {
			visit(v)
		}
	}
	c.stack = stack[:0]
	return count == n
}

// IsConvex reports whether set is convex in g: no path between two members
// passes through a non-member (the partition validity condition of the
// paper, footnote to Algorithm 1).
func (g *Graph) IsConvex(set NodeSet) bool {
	return g.NewConvexChecker().IsConvex(set)
}
