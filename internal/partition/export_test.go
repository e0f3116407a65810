package partition

import "streammap/internal/sdf"

// QuotientProbe holds one level's quotient and a fixed assignment of its
// units to partitions, and answers the multilevel path's structural checks
// over it, for the brute-force referee in quotient_referee_test.go.
type QuotientProbe struct {
	m *mlState
	q *quotient
}

// NewQuotientProbe builds lvl's quotient and one partition per group; the
// groups are ascending unit lists that cover every unit once, each convex
// and connected.
func NewQuotientProbe(g *sdf.Graph, lvl *CoarseLevel, groups [][]int32) (*QuotientProbe, error) {
	q, err := buildQuotient(g, lvl.UnitOf, lvl.NumUnits)
	if err != nil {
		return nil, err
	}
	m := &mlState{unitPart: make([]int32, lvl.NumUnits), visit: sdf.NewNodeSet(lvl.NumUnits)}
	for i, units := range groups {
		p := &mlPart{units: units, minPos: int32(q.n), maxPos: -1}
		for _, u := range units {
			m.unitPart[u] = int32(i)
			p.minPos = min(p.minPos, q.topoPos[u])
			p.maxPos = max(p.maxPos, q.topoPos[u])
		}
		m.parts = append(m.parts, p)
	}
	return &QuotientProbe{m: m, q: q}, nil
}

// PairConvex is mergePhase's verdict on merging partitions a and b.
func (p *QuotientProbe) PairConvex(a, b int32) bool {
	return !p.m.extPath(p.q, a, b, -1) && !p.m.extPath(p.q, b, a, -1)
}

// TripleConvex is threeWayPhase's verdict on merging a, b and c.
func (p *QuotientProbe) TripleConvex(a, b, c int32) bool { return p.m.tripleConvex(p.q, a, b, c) }

// RemoveOK is refinement's verdict on taking unit u out of partition P.
func (p *QuotientProbe) RemoveOK(P, u int32) bool { return p.m.removeOK(p.q, P, u) }

// AddConvex is refinement's verdict on adding unit u to partition Q.
func (p *QuotientProbe) AddConvex(Q, u int32) bool { return p.m.addConvex(p.q, Q, u) }

// UnitNodeCount returns the number of original nodes inside unit u.
func (l *CoarseLevel) UnitNodeCount(u int) int { return int(l.nodeCount[u]) }

// UnitScale returns the gcd of the repetition counts of u's members.
func (l *CoarseLevel) UnitScale(u int) int64 { return l.scale[u] }

// UnitInternalBytes returns the parent-iteration bytes carried by edges with
// both endpoints inside u.
func (l *CoarseLevel) UnitInternalBytes(u int) int64 { return l.internal[u] }

// TWus is the partition's estimated execution time per parent-graph
// steady-state iteration, in microseconds.
func (p *Partition) TWus() float64 { return p.Est.TUS * float64(p.Scale) }
