// Uncoarsening refinement for the multilevel partitioner: at each finer
// level, sweep the units and try moving boundary units into adjacent
// partitions when the TW sum improves — the bounded local step that lets
// quality converge toward the exact result as granularity is restored.
package partition

import (
	"slices"

	"streammap/internal/sdf"
)

// refine re-expresses the live partitions in level's units and runs up to
// DefaultRefinePasses boundary sweeps under the per-level evaluation budget.
func (m *mlState) refine(level int) error {
	lvl := m.c.Levels[level]
	U := lvl.NumUnits
	q := lvl.q
	m.visit = sdf.NewNodeSet(U)

	// Partitions are unions of working-level units, which are unions of
	// this level's units, so membership projects down exactly: follow each
	// unit's Parent chain up to the working level, over any skipped levels.
	up := make([]int32, U)
	for u := range up {
		up[u] = int32(u)
	}
	for l := level + 1; l <= m.level; l++ {
		parent := m.c.Levels[l].Parent
		for u, v := range up {
			up[u] = parent[v]
		}
	}
	for u, v := range up {
		up[u] = m.unitPart[v]
	}
	m.unitPart, m.level, m.q = up, level, q
	for _, p := range m.parts {
		p.units = p.units[:0]
		p.minPos, p.maxPos = int32(U), -1
	}
	for u, idx := range m.unitPart {
		p := m.parts[idx]
		p.units = append(p.units, int32(u))
		p.minPos = min(p.minPos, q.topoPos[u])
		p.maxPos = max(p.maxPos, q.topoPos[u])
	}

	budget := DefaultRefineBudget
	for pass := 0; pass < DefaultRefinePasses && budget > 0; pass++ {
		moves := 0
		for u := int32(0); u < int32(U) && budget > 0; u++ {
			if err := m.cancelled(); err != nil {
				return err
			}
			P := m.unitPart[u]
			if len(m.parts[P].units) < 2 {
				continue // moving the last unit would empty the partition
			}
			targets := m.adjacentParts([]int32{u}, P)
			slices.Sort(targets)
			for _, Q := range targets {
				if budget <= 0 {
					break
				}
				budget--
				m.stats.MoveEvals++
				if m.tryMove(lvl, u, P, Q) {
					moves++
					m.stats.Moves++
					break
				}
			}
		}
		if moves == 0 {
			break
		}
	}
	return nil
}

// tryMove evaluates moving unit u from partition P to adjacent partition Q
// and commits it when structurally sound and TW-profitable.
func (m *mlState) tryMove(lvl *CoarseLevel, u, P, Q int32) bool {
	q := m.q
	if !m.removeOK(P, u) || !m.addConvex(Q, u) {
		return false
	}
	p, qq := m.parts[P], m.parts[Q]
	// The candidate lists live in reused buffers (the memo clones what it
	// keeps); only an accepted move takes copies.
	umem := lvl.Members(int(u))
	m.pBuf = subtractSorted(m.pBuf, p.members, umem)
	m.qBuf = mergeSorted(m.qBuf, qq.members, umem)
	pMem, qMem := m.pBuf, m.qBuf
	estP, err := m.eng.Estimate(pMem)
	if err != nil {
		return false
	}
	estQ, err := m.eng.Estimate(qMem)
	if err != nil {
		return false
	}
	var scP int64
	for _, x := range p.units {
		if x != u {
			scP = sdf.GCD(scP, lvl.scale[x])
		}
	}
	scQ := sdf.GCD(qq.scale, lvl.scale[u])
	twP := estP.TUS * float64(scP)
	twQ := estQ.TUS * float64(scQ)
	if twP+twQ >= p.tw+qq.tw {
		return false
	}

	i, _ := slices.BinarySearch(p.units, u)
	p.units = slices.Delete(p.units, i, i+1)
	p.members, p.est, p.scale, p.tw = slices.Clone(pMem), estP, scP, twP
	p.minPos, p.maxPos = int32(lvl.NumUnits), -1
	for _, x := range p.units {
		p.minPos = min(p.minPos, q.topoPos[x])
		p.maxPos = max(p.maxPos, q.topoPos[x])
	}
	j, _ := slices.BinarySearch(qq.units, u)
	qq.units = slices.Insert(qq.units, j, u)
	qq.members, qq.est, qq.scale, qq.tw = slices.Clone(qMem), estQ, scQ, twQ
	qq.minPos = min(qq.minPos, q.topoPos[u])
	qq.maxPos = max(qq.maxPos, q.topoPos[u])
	m.unitPart[u] = Q
	return true
}

// removeOK reports whether partition P stays connected and convex after
// losing unit u (P has at least two units). Convexity: P was convex, so a
// new violation must route through u — it exists iff u both reaches P\{u}
// forward and is reached from P\{u} backward, through units outside P (a
// direct edge to/from u counts: u itself is the offending intermediate).
func (m *mlState) removeOK(P, u int32) bool {
	q, p := m.q, m.parts[P]
	// Weak connectivity of P \ {u}.
	start := p.units[0]
	if start == u {
		start = p.units[1]
	}
	m.visit.Reset()
	m.visit.Add(sdf.NodeID(start))
	stack := append(m.queue[:0], start)
	count := 1
	step := func(v int32) {
		if v != u && m.unitPart[v] == P && !m.visit.Has(sdf.NodeID(v)) {
			m.visit.Add(sdf.NodeID(v))
			count++
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range q.succs(x) {
			step(v)
		}
		for _, v := range q.preds(x) {
			step(v)
		}
	}
	m.queue = stack[:0]
	if count != len(p.units)-1 {
		return false
	}

	in := func(v int32) bool { return m.unitPart[v] == P }
	out := func(v int32) bool { return m.unitPart[v] != P }
	us := []int32{u}
	return !m.reaches(us, true, -1, p.maxPos, true, in, out) ||
		!m.reaches(us, false, p.minPos, int32(len(q.topoPos)), true, in, out)
}

// addConvex reports whether Q ∪ {u} is convex: no path from u to Q or from
// Q to u through units outside both (direct adjacency is fine). u is not in
// Q, and a path into u ends at u's own position.
func (m *mlState) addConvex(Q, u int32) bool {
	qq := m.parts[Q]
	out := func(v int32) bool { return m.unitPart[v] != Q }
	return !m.reaches([]int32{u}, true, -1, qq.maxPos, false,
		func(v int32) bool { return m.unitPart[v] == Q }, out) &&
		!m.reaches(qq.units, true, -1, m.q.topoPos[u], false,
			func(v int32) bool { return v == u }, out)
}

// materialize turns the surviving mlParts into the exact path's Result form:
// member lists in topological partition order.
func (m *mlState) materialize() (*Result, error) {
	// The result gets its own copy of the stats: a pointer into m would keep
	// the whole working state — hierarchy, unit sets, scratch — alive for as
	// long as the compilation is held.
	stats := m.stats
	res := &Result{Graph: m.g, ML: &stats}
	var parts []*Partition
	for _, p := range m.parts {
		if p.dead {
			continue
		}
		// A seed part's list aliases the coarsening level's storage: the
		// clone keeps the hierarchy from living as long as the Result.
		parts = append(parts, &Partition{Members: slices.Clone(p.members), Scale: p.scale, Est: p.est})
	}
	if m.g.NumNodes() <= mlFullValidateCap {
		if err := CheckConnected(m.g, parts); err != nil {
			return nil, err
		}
	}
	sortParts(m.g, parts)
	res.Parts = parts
	return res, nil
}
