// Uncoarsening refinement for the multilevel partitioner: at each finer
// level, sweep the units and try moving boundary units into adjacent
// partitions when the TW sum improves — the bounded local step that lets
// quality converge toward the exact result as granularity is restored.
package partition

import "streammap/internal/sdf"

// refine re-expresses the live partitions in level's units and runs up to
// DefaultRefinePasses boundary sweeps under the per-level evaluation budget.
func (m *mlState) refine(level int) error {
	lvl := m.c.Levels[level]
	U := lvl.NumUnits
	q, err := buildQuotient(m.g, lvl.UnitOf, U)
	if err != nil {
		return err
	}
	m.visit = sdf.NewNodeSet(U)
	if cap(m.unitPart) < U {
		m.unitPart = make([]int32, U)
	}
	m.unitPart = m.unitPart[:U]

	// Partitions are unions of coarser units, which are unions of this
	// level's units, so membership projects down exactly.
	for _, p := range m.parts {
		if p.dead {
			continue
		}
		p.units = sdf.NewNodeSet(U)
		p.unitCnt = 0
		p.minPos, p.maxPos = int32(U), -1
	}
	for n, u := range lvl.UnitOf {
		idx := m.owner[n]
		p := m.parts[idx]
		if p.units.Has(sdf.NodeID(u)) {
			continue
		}
		p.units.Add(sdf.NodeID(u))
		p.unitCnt++
		m.unitPart[u] = idx
		p.minPos = min32(p.minPos, q.topoPos[u])
		p.maxPos = max32(p.maxPos, q.topoPos[u])
	}

	budget := DefaultRefineBudget
	for pass := 0; pass < DefaultRefinePasses && budget > 0; pass++ {
		moves := 0
		for u := int32(0); u < int32(U) && budget > 0; u++ {
			if err := m.cancelled(); err != nil {
				return err
			}
			P := m.unitPart[u]
			if m.parts[P].unitCnt < 2 {
				continue // moving the last unit would empty the partition
			}
			for _, Q := range m.moveTargets(q, u, P) {
				if budget <= 0 {
					break
				}
				budget--
				m.stats.MoveEvals++
				if m.tryMove(q, lvl, u, P, Q) {
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

// moveTargets returns the distinct live partitions adjacent to unit u other
// than its own, ascending by index.
func (m *mlState) moveTargets(q *quotient, u, P int32) []int32 {
	out := m.idxScratch[:0]
	add := func(v int32) {
		idx := m.unitPart[v]
		if idx == P || m.parts[idx].dead {
			return
		}
		for _, s := range out {
			if s == idx {
				return
			}
		}
		out = append(out, idx)
	}
	for _, v := range q.succs(u) {
		add(v)
	}
	for _, v := range q.preds(u) {
		add(v)
	}
	for i := 1; i < len(out); i++ { // insertion sort; lists are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	m.idxScratch = out
	return out
}

// tryMove evaluates moving unit u from partition P to adjacent partition Q
// and commits it when structurally sound and TW-profitable.
func (m *mlState) tryMove(q *quotient, lvl *CoarseLevel, u, P, Q int32) bool {
	p, qq := m.parts[P], m.parts[Q]
	if !m.removeOK(q, p, u) || !m.addConvex(q, qq, u) {
		return false
	}
	umem := lvl.Members(int(u))
	pMem := subtractSorted(p.members, umem)
	qMem := mergeSorted(qq.members, umem)
	estP, err := m.estimateMembers(pMem)
	if err != nil {
		return false
	}
	estQ, err := m.estimateMembers(qMem)
	if err != nil {
		return false
	}
	var scP int64
	p.units.ForEach(func(x sdf.NodeID) {
		if int32(x) != u {
			scP = gcd64(scP, lvl.scale[x])
		}
	})
	scQ := gcd64(qq.scale, lvl.scale[u])
	twP := estP.TUS * float64(scP)
	twQ := estQ.TUS * float64(scQ)
	if twP+twQ >= p.tw+qq.tw {
		return false
	}

	p.units.Remove(sdf.NodeID(u))
	p.unitCnt--
	p.members, p.est, p.scale, p.tw = pMem, estP, scP, twP
	p.minPos, p.maxPos = int32(q.n), -1
	p.units.ForEach(func(x sdf.NodeID) {
		p.minPos = min32(p.minPos, q.topoPos[x])
		p.maxPos = max32(p.maxPos, q.topoPos[x])
	})
	qq.units.Add(sdf.NodeID(u))
	qq.unitCnt++
	qq.members, qq.est, qq.scale, qq.tw = qMem, estQ, scQ, twQ
	qq.minPos = min32(qq.minPos, q.topoPos[u])
	qq.maxPos = max32(qq.maxPos, q.topoPos[u])
	m.unitPart[u] = Q
	for _, n := range umem {
		m.owner[n] = Q
	}
	return true
}

// removeOK reports whether P stays connected and convex after losing unit u.
// Convexity: P was convex, so a new violation must route through u — it
// exists iff u both reaches P\{u} forward and is reached from P\{u}
// backward, through units outside P (a direct edge to/from u counts: u
// itself is the offending intermediate).
func (m *mlState) removeOK(q *quotient, p *mlPart, u int32) bool {
	// Weak connectivity of P \ {u}.
	m.visit.Reset()
	queue := m.queue[:0]
	var start int32 = -1
	p.units.ForEach(func(x sdf.NodeID) {
		if start == -1 && int32(x) != u {
			start = int32(x)
		}
	})
	if start == -1 {
		return false
	}
	m.visit.Add(sdf.NodeID(start))
	queue = append(queue, start)
	count := 1
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		step := func(v int32) {
			if v == u || !p.units.Has(sdf.NodeID(v)) || m.visit.Has(sdf.NodeID(v)) {
				return
			}
			m.visit.Add(sdf.NodeID(v))
			count++
			queue = append(queue, v)
		}
		for _, v := range q.succs(x) {
			step(v)
		}
		for _, v := range q.preds(x) {
			step(v)
		}
	}
	m.queue = queue[:0]
	if count != p.unitCnt-1 {
		return false
	}

	inRest := func(v int32) bool { return v != u && p.units.Has(sdf.NodeID(v)) }

	// Forward: does u reach P\{u} through external units?
	m.visit.Reset()
	queue = m.queue[:0]
	fwd := false
	for _, v := range q.succs(u) {
		if inRest(v) {
			fwd = true
			break
		}
		if !p.units.Has(sdf.NodeID(v)) && q.topoPos[v] < p.maxPos {
			m.visit.Add(sdf.NodeID(v))
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 && !fwd {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range q.succs(x) {
			if inRest(v) {
				fwd = true
				break
			}
			if !p.units.Has(sdf.NodeID(v)) && q.topoPos[v] < p.maxPos && !m.visit.Has(sdf.NodeID(v)) {
				m.visit.Add(sdf.NodeID(v))
				queue = append(queue, v)
			}
		}
	}
	m.queue = queue[:0]
	if !fwd {
		return true
	}

	// Backward: is u reached from P\{u} through external units?
	m.visit.Reset()
	queue = m.queue[:0]
	bwd := false
	for _, v := range q.preds(u) {
		if inRest(v) {
			bwd = true
			break
		}
		if !p.units.Has(sdf.NodeID(v)) && q.topoPos[v] > p.minPos {
			m.visit.Add(sdf.NodeID(v))
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 && !bwd {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range q.preds(x) {
			if inRest(v) {
				bwd = true
				break
			}
			if !p.units.Has(sdf.NodeID(v)) && q.topoPos[v] > p.minPos && !m.visit.Has(sdf.NodeID(v)) {
				m.visit.Add(sdf.NodeID(v))
				queue = append(queue, v)
			}
		}
	}
	m.queue = queue[:0]
	return !bwd
}

// addConvex reports whether Q ∪ {u} is convex: no path from u to Q or from
// Q to u through units outside both (direct adjacency is fine).
func (m *mlState) addConvex(q *quotient, qq *mlPart, u int32) bool {
	external := func(v int32) bool { return v != u && !qq.units.Has(sdf.NodeID(v)) }

	// u → … → Q through externals.
	if q.topoPos[u] < qq.maxPos {
		m.visit.Reset()
		queue := m.queue[:0]
		found := false
		for _, v := range q.succs(u) {
			if external(v) && q.topoPos[v] < qq.maxPos {
				m.visit.Add(sdf.NodeID(v))
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 && !found {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range q.succs(x) {
				if qq.units.Has(sdf.NodeID(v)) {
					found = true
					break
				}
				if external(v) && q.topoPos[v] < qq.maxPos && !m.visit.Has(sdf.NodeID(v)) {
					m.visit.Add(sdf.NodeID(v))
					queue = append(queue, v)
				}
			}
		}
		m.queue = queue[:0]
		if found {
			return false
		}
	}

	// Q → … → u through externals.
	if qq.minPos < q.topoPos[u] {
		m.visit.Reset()
		queue := m.queue[:0]
		found := false
		qq.units.ForEach(func(x sdf.NodeID) {
			for _, v := range q.succs(int32(x)) {
				if external(v) && q.topoPos[v] < q.topoPos[u] && !m.visit.Has(sdf.NodeID(v)) {
					m.visit.Add(sdf.NodeID(v))
					queue = append(queue, v)
				}
			}
		})
		for len(queue) > 0 && !found {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range q.succs(x) {
				if v == u {
					found = true
					break
				}
				if external(v) && q.topoPos[v] < q.topoPos[u] && !m.visit.Has(sdf.NodeID(v)) {
					m.visit.Add(sdf.NodeID(v))
					queue = append(queue, v)
				}
			}
		}
		m.queue = queue[:0]
		if found {
			return false
		}
	}
	return true
}

// materialize turns the surviving mlParts into the exact path's Result form:
// extracted subgraphs in topological partition order.
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
		sub, err := m.g.Extract(p.members)
		if err != nil {
			return nil, err
		}
		parts = append(parts, &Partition{Sub: sub, Est: p.est})
	}
	if err := validate(m.g, parts, m.g.NumNodes() <= mlFullValidateCap); err != nil {
		return nil, err
	}
	sortParts(m.g, parts)
	res.Parts = parts
	return res, nil
}
