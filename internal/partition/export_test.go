package partition

import (
	"context"

	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// phase4OffCaller runs Algorithm 1 through phase 3, then phase 4's first
// scan, and returns how many of its groups a goroutine other than the
// caller evaluated, and how many groups it had.
func phase4OffCaller(ctx context.Context, g *sdf.Graph, eng *pee.Engine, workers int) (off, groups int, err error) {
	p := newPartitioner(ctx, g, eng, workers)
	for _, phase := range []func() error{p.phase0SCC, p.phase1, p.phase2Remaining, p.phase3BoundMerging} {
		if err := phase(); err != nil {
			return 0, 0, err
		}
	}
	groups, eval := p.tripleScan()
	if _, err := p.scan(groups, eval); err != nil {
		return 0, 0, err
	}
	for _, r := range p.recs[:groups] {
		if r.w != nil && r.w != p.ws[0] {
			off++
		}
	}
	return off, groups, nil
}

// QuotientProbe holds one level's quotient and a fixed assignment of its
// units to partitions, and answers the multilevel path's structural checks
// over it, for the brute-force referee in quotient_referee_test.go.
type QuotientProbe struct{ m *mlState }

// NewQuotientProbe reads lvl's quotient and makes one partition per group;
// the groups are ascending unit lists that cover every unit once, each
// convex and connected.
func NewQuotientProbe(g *sdf.Graph, lvl *CoarseLevel, groups [][]int32) (*QuotientProbe, error) {
	m := &mlState{q: lvl.q, unitPart: make([]int32, lvl.NumUnits), visit: sdf.NewNodeSet(lvl.NumUnits)}
	for i, units := range groups {
		p := &mlPart{units: units, minPos: int32(lvl.NumUnits), maxPos: -1}
		for _, u := range units {
			m.unitPart[u] = int32(i)
			p.minPos = min(p.minPos, lvl.q.topoPos[u])
			p.maxPos = max(p.maxPos, lvl.q.topoPos[u])
		}
		m.parts = append(m.parts, p)
	}
	return &QuotientProbe{m: m}, nil
}

// PairConvex is mergePhase's verdict on merging partitions a and b.
func (p *QuotientProbe) PairConvex(a, b int32) bool {
	return !p.m.extPath(a, b, -1) && !p.m.extPath(b, a, -1)
}

// TripleConvex is threeWayPhase's verdict on merging a, b and c.
func (p *QuotientProbe) TripleConvex(a, b, c int32) bool { return p.m.tripleConvex(a, b, c) }

// RemoveOK is refinement's verdict on taking unit u out of partition P.
func (p *QuotientProbe) RemoveOK(P, u int32) bool { return p.m.removeOK(P, u) }

// AddConvex is refinement's verdict on adding unit u to partition Q.
func (p *QuotientProbe) AddConvex(Q, u int32) bool { return p.m.addConvex(Q, u) }

// QuotientCSR returns the level's stored quotient: the successor CSR
// (offsets, targets, summed bytes), the predecessor CSR (offsets, sources)
// and each unit's topological position. The slices alias the level.
func (l *CoarseLevel) QuotientCSR() (succOff, succTo []int32, succB []int64, predOff, predFrom, topoPos []int32) {
	q := l.q
	return q.succOff, q.succTo, q.succB, q.predOff, q.predFrom, q.topoPos
}

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
