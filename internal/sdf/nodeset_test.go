package sdf

import (
	"testing"
	"testing/quick"
)

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(130)
	for _, id := range []NodeID{0, 63, 64, 129} {
		s.Add(id)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	for _, id := range []NodeID{0, 63, 64, 129} {
		if !s.Has(id) {
			t.Errorf("Has(%d) = false", id)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Errorf("unexpected members")
	}
	s.Remove(63)
	if s.Has(63) || s.Len() != 3 {
		t.Errorf("Remove failed")
	}
	got := s.Members()
	want := []NodeID{0, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("Members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Members[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNodeSetUnionCloneEqual(t *testing.T) {
	a := NewNodeSet(100)
	b := NewNodeSet(100)
	a.Add(1)
	a.Add(50)
	b.Add(99)
	u := a.Clone()
	u.UnionWith(b)
	if u.Len() != 3 || !u.Has(1) || !u.Has(50) || !u.Has(99) {
		t.Errorf("UnionWith wrong: %v", u)
	}
	if a.Len() != 2 {
		t.Errorf("UnionWith on a clone mutated the original")
	}
	c := a.Clone()
	c.Add(2)
	if a.Has(2) {
		t.Errorf("Clone aliases receiver")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Errorf("Equal broken")
	}
	if !a.Intersects(u) || a.Intersects(b) {
		t.Errorf("Intersects broken")
	}
}

// Property: Members returns exactly the added ids, sorted, for arbitrary id
// subsets.
func TestNodeSetMembersQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		const capN = 256
		s := NewNodeSet(capN)
		seen := map[NodeID]bool{}
		for _, r := range raw {
			id := NodeID(int(r) % capN)
			s.Add(id)
			seen[id] = true
		}
		ms := s.Members()
		if len(ms) != len(seen) {
			return false
		}
		prev := NodeID(-1)
		for _, m := range ms {
			if !seen[m] || m <= prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsConnected(t *testing.T) {
	// a -> b -> c, plus isolated-in-set check
	g := mustGraph(t, "pipe", Pipe("p", F(addOne()), F(double()), F(addOne())))
	all := NewNodeSet(3)
	all.Add(0)
	all.Add(1)
	all.Add(2)
	if !g.IsConnected(all) {
		t.Errorf("full chain should be connected")
	}
	ends := NewNodeSet(3)
	ends.Add(0)
	ends.Add(2)
	if g.IsConnected(ends) {
		t.Errorf("{0,2} of a 3-chain is not connected")
	}
	if g.IsConnected(NewNodeSet(3)) {
		t.Errorf("empty set is not connected")
	}
	if !g.IsConnected(SingletonSet(3, 1)) {
		t.Errorf("singleton should be connected")
	}
}

func TestIsConvex(t *testing.T) {
	// Diamond: split -> (b0, b1) -> join. {split, b0, join} is NOT convex
	// because split -> b1 -> join passes through external b1.
	g := mustGraph(t, "sj", SplitDupRR("sj", 1, []int{1, 1}, F(addOne()), F(double())))
	var split, join, b0, b1 NodeID = -1, -1, -1, -1
	for _, n := range g.Nodes {
		switch {
		case n.Filter.Kind == KindSplitter:
			split = n.ID
		case n.Filter.Kind == KindJoiner:
			join = n.ID
		case n.Filter.Name == "AddOne":
			b0 = n.ID
		case n.Filter.Name == "Double":
			b1 = n.ID
		}
	}
	bad := NewNodeSet(4)
	bad.Add(split)
	bad.Add(b0)
	bad.Add(join)
	if g.IsConvex(bad) {
		t.Errorf("{split,b0,join} should not be convex")
	}
	good := bad.Clone()
	good.Add(b1)
	if !g.IsConvex(good) {
		t.Errorf("whole diamond should be convex")
	}
	half := NewNodeSet(4)
	half.Add(split)
	half.Add(b0)
	if !g.IsConvex(half) {
		t.Errorf("{split,b0} should be convex")
	}
}

// Property: on a random series-parallel-ish chain graph, any contiguous
// window of a chain is convex.
func TestChainWindowsConvexQuick(t *testing.T) {
	streams := make([]Stream, 12)
	for i := range streams {
		streams[i] = F(addOne())
	}
	g := mustGraph(t, "chain", Pipe("p", streams...))
	f := func(a, b uint8) bool {
		lo, hi := int(a)%12, int(b)%12
		if lo > hi {
			lo, hi = hi, lo
		}
		set := NewNodeSet(12)
		for i := lo; i <= hi; i++ {
			set.Add(NodeID(i))
		}
		return g.IsConvex(set) && g.IsConnected(set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeSetInPlaceOps(t *testing.T) {
	a := NewNodeSet(150)
	a.Add(3)
	a.Add(77)
	a.Add(149)
	b := NewNodeSet(150)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatalf("CopyFrom: %v != %v", b, a)
	}
	b.Add(10)
	if a.Has(10) {
		t.Fatal("CopyFrom aliases source")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Reset left %d members", b.Len())
	}
	got := a.AppendMembers(nil)
	want := []NodeID{3, 77, 149}
	if len(got) != len(want) {
		t.Fatalf("AppendMembers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendMembers[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	var walked []NodeID
	a.ForEach(func(id NodeID) { walked = append(walked, id) })
	if len(walked) != 3 || walked[0] != 3 || walked[2] != 149 {
		t.Fatalf("ForEach order = %v", walked)
	}
	// AppendMembers into a prefilled slice keeps the prefix.
	pre := a.AppendMembers([]NodeID{42})
	if pre[0] != 42 || len(pre) != 4 {
		t.Fatalf("AppendMembers with prefix = %v", pre)
	}
}

func TestHashMembers(t *testing.T) {
	a := []NodeID{0, 64, 128, 199}
	b := append([]NodeID(nil), a...)
	if HashMembers(a) != HashMembers(b) {
		t.Fatal("equal lists hash differently")
	}
	if HashMembers(a) == HashMembers([]NodeID{0, 128, 199}) {
		t.Fatal("distinct lists share a hash (astronomically unlikely)")
	}
	// The length is mixed in: the empty list and {0} are different lists.
	if HashMembers(nil) == HashMembers([]NodeID{0}) {
		t.Fatal("[] and [0] share a hash")
	}
	// Sanity: distinct singletons spread over many buckets.
	buckets := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		buckets[HashMembers([]NodeID{NodeID(i)})%64] = true
	}
	if len(buckets) < 32 {
		t.Fatalf("singleton hashes hit only %d of 64 buckets", len(buckets))
	}
}

func BenchmarkNodeSetLen(b *testing.B) {
	s := NewNodeSet(1024)
	for i := 0; i < 1024; i += 3 {
		s.Add(NodeID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += s.Len()
	}
	_ = total
}

func BenchmarkHashMembers(b *testing.B) {
	var members []NodeID
	for i := 0; i < 1024; i += 7 {
		members = append(members, NodeID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var h uint64
	for i := 0; i < b.N; i++ {
		h ^= HashMembers(members)
	}
	_ = h
}
