// Multilevel coarsening: contract the stream graph into a hierarchy of
// supernode levels so a million-filter graph can be partitioned on a core of
// a few thousand units. Contraction is purely structural — strongly
// connected components seed level 0 (they are atomic for pipelined execution
// anyway), then each round contracts rate-matched split-join diamonds and
// unique-successor/unique-predecessor chains, the two shapes synth-scale
// stream graphs are made of. Every supernode is convex and connected by
// construction, so partitions assembled from whole units inherit both
// properties at the original graph's granularity.
package partition

import (
	"fmt"
	"sort"

	"streammap/internal/sdf"
)

// Coarsening constants.
const (
	DefaultCoreSize = 2048
	// DefaultMaxUnitNodes caps how many original nodes one supernode may
	// absorb.
	DefaultMaxUnitNodes = 64
	// DefaultMaxLevels is a safety cap on hierarchy depth.
	DefaultMaxLevels = 32
)

// CoarsenOptions bound the contraction.
type CoarsenOptions struct {
	// CoreSize stops coarsening once a level has at most this many units
	// (default 2048 — a size the coarse Try-Merge handles in seconds).
	CoreSize int
}

func (o CoarsenOptions) withDefaults() CoarsenOptions {
	if o.CoreSize <= 0 {
		o.CoreSize = DefaultCoreSize
	}
	return o
}

// CoarseLevel is one granularity of the hierarchy: a partition of the
// original nodes into NumUnits supernodes, each convex and connected.
type CoarseLevel struct {
	NumUnits int
	// UnitOf maps each original node id to its unit at this level.
	UnitOf []int32
	// Parent maps the previous (finer) level's units to units at this level;
	// at level 0 the "previous level" is the nodes themselves, so Parent
	// aliases UnitOf.
	Parent []int32

	nodeCount []int32 // original nodes per unit
	scale     []int64 // gcd of member repetition counts per unit
	internal  []int64 // parent-iteration bytes on intra-unit edges

	memOff []int32
	mem    []sdf.NodeID
}

// Members returns unit u's original node ids, ascending. The member index is
// built on first use and shared by all units of the level; the returned
// slice aliases it and must not be written.
func (l *CoarseLevel) Members(u int) []sdf.NodeID {
	if l.mem == nil {
		l.buildMembers()
	}
	return l.mem[l.memOff[u]:l.memOff[u+1]]
}

func (l *CoarseLevel) buildMembers() {
	off := make([]int32, l.NumUnits+1)
	for _, u := range l.UnitOf {
		off[u+1]++
	}
	for i := 1; i <= l.NumUnits; i++ {
		off[i] += off[i-1]
	}
	mem := make([]sdf.NodeID, len(l.UnitOf))
	cur := append([]int32(nil), off[:l.NumUnits]...)
	for n, u := range l.UnitOf {
		mem[cur[u]] = sdf.NodeID(n)
		cur[u]++
	}
	l.memOff, l.mem = off, mem
}

// Coarsening is the full hierarchy, finest (level 0, SCC granularity) to
// coarsest.
type Coarsening struct {
	G      *sdf.Graph
	Levels []*CoarseLevel
}

// Coarsest returns the last (smallest) level.
func (c *Coarsening) Coarsest() *CoarseLevel { return c.Levels[len(c.Levels)-1] }

// BuildCoarsening contracts g level by level until the unit count reaches
// opts.CoreSize, no contraction applies, or DefaultMaxLevels is hit.
// maxUnitBytes caps a supernode's estimated per-iteration internal buffer
// bytes, the proxy for its shared-memory footprint (0: uncapped); Multilevel
// passes the device's shared memory so seed units stay schedulable.
func BuildCoarsening(g *sdf.Graph, opts CoarsenOptions, maxUnitBytes int64) (*Coarsening, error) {
	opts = opts.withDefaults()
	c := &Coarsening{G: g, Levels: []*CoarseLevel{sccLevel(g)}}
	for len(c.Levels) < DefaultMaxLevels {
		cur := c.Coarsest()
		if cur.NumUnits <= opts.CoreSize {
			break
		}
		next, err := contract(g, cur, maxUnitBytes)
		if err != nil {
			return nil, err
		}
		if next == nil {
			break
		}
		c.Levels = append(c.Levels, next)
	}
	return c, nil
}

// sccLevel builds level 0: every strongly connected component is one unit,
// numbered ascending by smallest member node id for determinism.
func sccLevel(g *sdf.Graph) *CoarseLevel {
	n := g.NumNodes()
	sccOf := make([]int32, n)
	sccs := g.StronglyConnected()
	for si, scc := range sccs {
		for _, id := range scc {
			sccOf[id] = int32(si)
		}
	}
	sccUnit := make([]int32, len(sccs))
	for i := range sccUnit {
		sccUnit[i] = -1
	}
	unitOf := make([]int32, n)
	var next int32
	for id := 0; id < n; id++ {
		si := sccOf[id]
		if sccUnit[si] == -1 {
			sccUnit[si] = next
			next++
		}
		unitOf[id] = sccUnit[si]
	}
	l := &CoarseLevel{
		NumUnits:  int(next),
		UnitOf:    unitOf,
		Parent:    unitOf,
		nodeCount: make([]int32, next),
		scale:     make([]int64, next),
		internal:  make([]int64, next),
	}
	for id := 0; id < n; id++ {
		u := unitOf[id]
		l.nodeCount[u]++
		l.scale[u] = sdf.GCD(l.scale[u], g.Rep(sdf.NodeID(id)))
	}
	for _, e := range g.Edges {
		if ua := unitOf[e.Src]; ua == unitOf[e.Dst] {
			l.internal[ua] += g.EdgeBytes(e)
		}
	}
	return l
}

// contract runs one diamond-then-chains matching round over the level's
// quotient graph and returns the next coarser level, or nil when nothing
// contracted.
func contract(g *sdf.Graph, cur *CoarseLevel, maxUnitBytes int64) (*CoarseLevel, error) {
	q, err := buildQuotient(g, cur.UnitOf, cur.NumUnits)
	if err != nil {
		return nil, err
	}
	U := cur.NumUnits
	leader := make([]int32, U) // smallest unit id of the group; -1 ungrouped
	for i := range leader {
		leader[i] = -1
	}
	groups := 0

	// fits applies the supernode caps: original-node count and the
	// shared-memory proxy (internal bytes per normalized unit iteration).
	fits := func(nodes, by, sc int64) bool {
		if nodes > DefaultMaxUnitNodes {
			return false
		}
		if maxUnitBytes > 0 && sc > 0 && by/sc > maxUnitBytes {
			return false
		}
		return true
	}

	// Pass 1: rate-matched split-joins. A splitter s whose successors are all
	// single-purpose arms (unique pred s, unique common succ j, equal scale)
	// contracts with the arms and the joiner into one supernode.
	for s := int32(0); s < int32(U); s++ {
		if leader[s] != -1 {
			continue
		}
		arms := q.succs(s)
		if len(arms) < 2 {
			continue
		}
		j := int32(-1)
		ok := true
		nodes := int64(cur.nodeCount[s])
		by := cur.internal[s]
		sc := cur.scale[s]
		armScale := int64(-1)
		for _, a := range arms {
			if leader[a] != -1 {
				ok = false
				break
			}
			pa, sa := q.preds(a), q.succs(a)
			if len(pa) != 1 || pa[0] != s || len(sa) != 1 {
				ok = false
				break
			}
			if j == -1 {
				j = sa[0]
			} else if sa[0] != j {
				ok = false
				break
			}
			if armScale == -1 {
				armScale = cur.scale[a]
			} else if cur.scale[a] != armScale {
				ok = false
				break
			}
			nodes += int64(cur.nodeCount[a])
			by += cur.internal[a]
			sc = sdf.GCD(sc, cur.scale[a])
		}
		if !ok || j == -1 || j == s || leader[j] != -1 || len(q.preds(j)) != len(arms) {
			continue
		}
		nodes += int64(cur.nodeCount[j])
		by += cur.internal[j]
		sc = sdf.GCD(sc, cur.scale[j])
		for _, a := range arms {
			by += q.bytesBetween(s, a) + q.bytesBetween(a, j)
		}
		if !fits(nodes, by, sc) {
			continue
		}
		min := s
		for _, a := range arms {
			if a < min {
				min = a
			}
		}
		if j < min {
			min = j
		}
		leader[s], leader[j] = min, min
		for _, a := range arms {
			leader[a] = min
		}
		groups++
	}

	// Passes 2a/2b: chains — u with a unique successor v that has u as its
	// unique predecessor. Rate-matched pairs first so supernodes stay
	// homogeneous, then any remaining chain link.
	for pass := 0; pass < 2; pass++ {
		for u := int32(0); u < int32(U); u++ {
			if leader[u] != -1 {
				continue
			}
			su := q.succs(u)
			if len(su) != 1 {
				continue
			}
			v := su[0]
			if leader[v] != -1 || len(q.preds(v)) != 1 {
				continue
			}
			if pass == 0 && cur.scale[u] != cur.scale[v] {
				continue
			}
			nodes := int64(cur.nodeCount[u]) + int64(cur.nodeCount[v])
			by := cur.internal[u] + cur.internal[v] + q.bytesBetween(u, v)
			sc := sdf.GCD(cur.scale[u], cur.scale[v])
			if !fits(nodes, by, sc) {
				continue
			}
			min := u
			if v < min {
				min = v
			}
			leader[u], leader[v] = min, min
			groups++
		}
	}

	if groups == 0 {
		return nil, nil
	}

	// Renumber: new units ascend by smallest constituent unit id.
	newOf := make([]int32, U)
	for i := range newOf {
		newOf[i] = -1
	}
	var next int32
	for u := int32(0); u < int32(U); u++ {
		m := leader[u]
		if m == -1 {
			m = u
		}
		if newOf[m] == -1 {
			newOf[m] = next
			next++
		}
		newOf[u] = newOf[m]
	}

	nl := &CoarseLevel{
		NumUnits:  int(next),
		Parent:    newOf,
		UnitOf:    make([]int32, len(cur.UnitOf)),
		nodeCount: make([]int32, next),
		scale:     make([]int64, next),
		internal:  make([]int64, next),
	}
	for n, u := range cur.UnitOf {
		nl.UnitOf[n] = newOf[u]
	}
	for u := 0; u < U; u++ {
		nu := newOf[u]
		nl.nodeCount[nu] += cur.nodeCount[u]
		nl.scale[nu] = sdf.GCD(nl.scale[nu], cur.scale[u])
		nl.internal[nu] += cur.internal[u]
	}
	// Cross-unit bytes that became internal to a merged supernode.
	for u := int32(0); u < int32(U); u++ {
		for i := q.succOff[u]; i < q.succOff[u+1]; i++ {
			if v := q.succTo[i]; newOf[u] == newOf[v] {
				nl.internal[newOf[u]] += q.succB[i]
			}
		}
	}
	return nl, nil
}

// quotient is the CSR-indexed DAG over one level's units: distinct
// cross-unit adjacency with aggregated parent-iteration bytes, plus a
// deterministic topological position per unit (used to prune convexity
// searches: along any path positions strictly increase).
type quotient struct {
	n        int
	succOff  []int32
	succTo   []int32
	succB    []int64
	predOff  []int32
	predFrom []int32
	topoPos  []int32
}

func (q *quotient) succs(u int32) []int32 { return q.succTo[q.succOff[u]:q.succOff[u+1]] }
func (q *quotient) preds(u int32) []int32 { return q.predFrom[q.predOff[u]:q.predOff[u+1]] }

// bytesBetween returns the aggregated bytes on the quotient edge a->b (0 if
// absent), by binary search in a's sorted successor bucket.
func (q *quotient) bytesBetween(a, b int32) int64 {
	lo, hi := q.succOff[a], q.succOff[a+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case q.succTo[mid] < b:
			lo = mid + 1
		case q.succTo[mid] > b:
			hi = mid
		default:
			return q.succB[mid]
		}
	}
	return 0
}

// buildQuotient aggregates g's cross-unit edges into the quotient DAG.
func buildQuotient(g *sdf.Graph, unitOf []int32, numUnits int) (*quotient, error) {
	type cross struct {
		from, to int32
		b        int64
	}
	var xs []cross
	for _, e := range g.Edges {
		ua, ub := unitOf[e.Src], unitOf[e.Dst]
		if ua != ub {
			xs = append(xs, cross{ua, ub, g.EdgeBytes(e)})
		}
	}
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].from != xs[j].from {
			return xs[i].from < xs[j].from
		}
		return xs[i].to < xs[j].to
	})
	q := &quotient{n: numUnits, succOff: make([]int32, numUnits+1)}
	for i := 0; i < len(xs); {
		j := i
		var b int64
		for j < len(xs) && xs[j].from == xs[i].from && xs[j].to == xs[i].to {
			b += xs[j].b
			j++
		}
		q.succTo = append(q.succTo, xs[i].to)
		q.succB = append(q.succB, b)
		q.succOff[xs[i].from+1]++
		i = j
	}
	for i := 1; i <= numUnits; i++ {
		q.succOff[i] += q.succOff[i-1]
	}
	// Pred CSR from the distinct succ pairs, re-sorted by (to, from).
	type pair struct{ from, to int32 }
	ps := make([]pair, len(q.succTo))
	k := 0
	for u := int32(0); u < int32(numUnits); u++ {
		for i := q.succOff[u]; i < q.succOff[u+1]; i++ {
			ps[k] = pair{u, q.succTo[i]}
			k++
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].to != ps[j].to {
			return ps[i].to < ps[j].to
		}
		return ps[i].from < ps[j].from
	})
	q.predOff = make([]int32, numUnits+1)
	q.predFrom = make([]int32, len(ps))
	for i, p := range ps {
		q.predFrom[i] = p.from
		q.predOff[p.to+1]++
	}
	for i := 1; i <= numUnits; i++ {
		q.predOff[i] += q.predOff[i-1]
	}

	// Topological positions (Kahn's algorithm; the order slice is its own
	// queue). They only prune convexity searches, and any topological order
	// keeps positions increasing along edges. The quotient of an SCC
	// condensation — and of any convexity-preserving contraction of it — is
	// acyclic; failing here means a construction bug.
	indeg := make([]int32, numUnits)
	order := make([]int32, 0, numUnits)
	for u := int32(0); u < int32(numUnits); u++ {
		if indeg[u] = q.predOff[u+1] - q.predOff[u]; indeg[u] == 0 {
			order = append(order, u)
		}
	}
	q.topoPos = make([]int32, numUnits)
	for i := 0; i < len(order); i++ {
		u := order[i]
		q.topoPos[u] = int32(i)
		for _, v := range q.succs(u) {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != numUnits {
		return nil, fmt.Errorf("partition: coarsening quotient has a cycle (%d of %d units ordered)", len(order), numUnits)
	}
	return q, nil
}
