// Multilevel partitioning: coarsen (coarsen.go), run an IO-bound-first
// Try-Merge over the coarsest level's units, then uncoarsen level by level
// with bounded boundary refinement. Partitions are always unions of whole
// coarse units, so quotient-level convexity and connectivity imply the
// original-graph properties the exact partitioner enforces; profitability
// uses the same TW = T·Scale comparison, scored through the engine's memo,
// keyed by the member list itself: refinement passes ask again about the
// same P∖{u} and Q∪{u} at every level and in every pass. The caller builds
// the engine for this one run, so the memo dies with it.
//
// Deviations from the exact Algorithm 1 flow, accepted for scalability and
// refereed by the differential harness (synth.CheckMultilevel):
//   - merge rounds sweep candidates in ascending-TW order without restarting
//     the whole scan after each accepted merge;
//   - refinement moves single units across partition boundaries instead of
//     re-running Try-Merge, under a per-level evaluation budget.
//
// Three-way merges (Algorithm 1's simultaneous phase) are kept: they are what
// collapses split-join fan-outs no pairwise merge can, and without them the
// result fragments into measurably more partitions than the exact path's.
package partition

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// Multilevel constants.
const (
	// DefaultRefinePasses is the number of boundary sweeps per uncoarsening
	// level.
	DefaultRefinePasses = 2
	// DefaultRefineBudget caps candidate-move evaluations per level; each
	// evaluation costs at most two estimates.
	DefaultRefineBudget = 4096
	// DefaultRefineUnitCap skips refinement at levels with more units than
	// this: on million-node graphs the finest levels are too large to sweep,
	// while at differential-corpus sizes every level — including level 0 —
	// is refined.
	DefaultRefineUnitCap = 16384

	// mlFullValidateCap bounds the graph size up to which the final result
	// gets the exact path's connectivity check (CheckConnected). Above it none
	// runs: partitions are unions of coarse units that are connected by
	// construction, and every merge and move re-checked connectivity at
	// quotient granularity. Exact cover and convexity are never walked
	// here: pdg.Build's owner array and acyclic-quotient check hold them
	// for every result.
	mlFullValidateCap = 32768
)

// MLOptions configure the multilevel path. The zero value selects defaults
// sized for the 10^5–10^6 node target.
type MLOptions struct {
	Coarsen CoarsenOptions
}

// MLStats is the multilevel run's provenance, attached to Result.ML and
// surfaced as the stage.partition span's note and by streammap -stats.
type MLStats struct {
	Levels        int `json:"levels"`        // hierarchy depth including level 0
	CoarsestUnits int `json:"coarsestUnits"` // unit count of the coarsest level
	SeedLevel     int `json:"seedLevel"`     // level the seed partitions came from (after fallback)
	SeedParts     int `json:"seedParts"`     // partitions at seeding
	MergeRounds   int `json:"mergeRounds"`   // merge sweeps across all three priority specs
	Merges        int `json:"merges"`        // accepted merges
	RefinedLevels int `json:"refinedLevels"` // levels that ran boundary refinement
	MoveEvals     int `json:"moveEvals"`     // candidate moves evaluated
	Moves         int `json:"moves"`         // accepted moves
}

func (s *MLStats) String() string {
	return fmt.Sprintf("levels=%d coarsest=%d seedLevel=%d seeds=%d merges=%d/%d rounds refined=%d levels moves=%d/%d evals",
		s.Levels, s.CoarsestUnits, s.SeedLevel, s.SeedParts, s.Merges, s.MergeRounds,
		s.RefinedLevels, s.Moves, s.MoveEvals)
}

// mlPart is a partition during the multilevel flow: its units of the
// current working level plus the sorted original-node member list that
// feeds the estimator.
type mlPart struct {
	units   []int32      // the working level's units, ascending
	members []sdf.NodeID // sorted original node ids
	est     *pee.Estimate
	scale   int64
	tw      float64
	minPos  int32 // min/max quotient topo position over the part's units
	maxPos  int32
	dead    bool
}

type mlState struct {
	ctx   context.Context
	g     *sdf.Graph
	eng   *pee.Engine
	c     *Coarsening
	stats MLStats

	parts []*mlPart
	// unitPart maps each unit of the working level to its partition's
	// index: the one record of which partition holds a unit. It only ever
	// names live partitions.
	unitPart []int32
	level    int // the working level

	visit      sdf.NodeSet // unit-capacity scratch for quotient searches
	queue      []int32
	idxScratch []int32
	pBuf, qBuf []sdf.NodeID // tryMove's candidate member lists
}

// Multilevel partitions g through the coarsen→merge→refine flow. It is
// deterministic for a given graph and options, cancellable between candidate
// evaluations, and returns a Result interchangeable with Run's (plus ML
// provenance).
func Multilevel(ctx context.Context, g *sdf.Graph, eng *pee.Engine, opts MLOptions) (*Result, error) {
	m := &mlState{ctx: ctx, g: g, eng: eng}
	if err := m.cancelled(); err != nil {
		return nil, err
	}
	c, err := BuildCoarsening(g, opts.Coarsen, eng.Prof.Device.SharedMemPerSM)
	if err != nil {
		return nil, err
	}
	m.c = c
	m.stats.Levels = len(c.Levels)
	m.stats.CoarsestUnits = c.Coarsest().NumUnits

	// Seed at the coarsest level whose units are all individually
	// schedulable; an infeasible supernode sends us one level finer. At
	// level 0 the units are SCCs and singletons, whose infeasibility is the
	// same hard error the exact path reports.
	seedLevel := len(c.Levels) - 1
	for {
		if err := m.cancelled(); err != nil {
			return nil, err
		}
		ok, err := m.seed(c.Levels[seedLevel], seedLevel == 0)
		if err != nil {
			return nil, err
		}
		if ok {
			break
		}
		seedLevel--
	}
	m.stats.SeedLevel, m.level = seedLevel, seedLevel
	m.stats.SeedParts = len(m.parts)

	lvl := c.Levels[seedLevel]
	q, err := buildQuotient(g, lvl.UnitOf, lvl.NumUnits)
	if err != nil {
		return nil, err
	}
	m.visit = sdf.NewNodeSet(lvl.NumUnits)
	for i, p := range m.parts {
		p.minPos = q.topoPos[i]
		p.maxPos = q.topoPos[i]
	}
	if err := m.mergePhase(q); err != nil {
		return nil, err
	}
	afterMerge := m.liveCount()
	if err := m.threeWayPhase(q); err != nil {
		return nil, err
	}
	if err := m.allNodesPhase(lvl.NumUnits); err != nil {
		return nil, err
	}
	afterAll := m.liveCount()

	for level := seedLevel; level >= 0; level-- {
		if m.c.Levels[level].NumUnits > DefaultRefineUnitCap {
			continue
		}
		if err := m.refine(level); err != nil {
			return nil, err
		}
		m.stats.RefinedLevels++
	}

	res, err := m.materialize()
	if err != nil {
		return nil, err
	}
	res.CountAfterPhase = [5]int{m.stats.SeedParts, afterMerge, afterAll, len(res.Parts), len(res.Parts)}
	return res, nil
}

func (m *mlState) cancelled() error { return m.ctx.Err() }

// seed builds one singleton partition per unit of lvl. It returns ok=false
// when some unit is unschedulable and a finer level should be tried; at
// level 0 (hard=true) that is a compile error matching the exact path's.
func (m *mlState) seed(lvl *CoarseLevel, hard bool) (bool, error) {
	m.parts = m.parts[:0]
	U := lvl.NumUnits
	if cap(m.unitPart) < U {
		m.unitPart = make([]int32, U)
	}
	m.unitPart = m.unitPart[:U]
	units := make([]int32, U) // backs the singleton unit lists
	for u := 0; u < U; u++ {
		if err := m.cancelled(); err != nil {
			return false, err
		}
		members := lvl.Members(u)
		est, err := m.eng.Estimate(members)
		if err != nil {
			if !hard {
				return false, nil
			}
			if len(members) == 1 {
				id := members[0]
				return false, fmt.Errorf("partition: node %d (%s) does not fit on the device alone: %w",
					id, m.g.Nodes[id].Filter.Name, err)
			}
			return false, fmt.Errorf("partition: feedback loop %s does not fit in shared memory: %w",
				sdf.FormatMembers(members), err)
		}
		sc := lvl.scale[u]
		units[u] = int32(u)
		m.parts = append(m.parts, &mlPart{
			units:   units[u : u+1 : u+1],
			members: members,
			est:     est,
			scale:   sc,
			tw:      est.TUS * float64(sc),
		})
		m.unitPart[u] = int32(u)
	}
	return true, nil
}

func (m *mlState) liveCount() int {
	n := 0
	for _, p := range m.parts {
		if !p.dead {
			n++
		}
	}
	return n
}

// liveSorted returns indices of live partitions passing keep, ascending by
// (TW, index) — smaller workloads merge first, as in the exact phase 3.
func (m *mlState) liveSorted(keep func(*mlPart) bool) []int32 {
	var out []int32
	for i, p := range m.parts {
		if !p.dead && keep(p) {
			out = append(out, int32(i))
		}
	}
	m.sortByTW(out)
	return out
}

// sortByTW orders partition indices ascending by (TW, index).
func (m *mlState) sortByTW(idx []int32) {
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(cmp.Compare(m.parts[a].tw, m.parts[b].tw), cmp.Compare(a, b))
	})
}

// adjacentParts returns the distinct partitions other than self that hold a
// quotient neighbour of units, in discovery order. unitPart names only live
// partitions, so every result is live. The slice is scratch, valid until
// the next call.
func (m *mlState) adjacentParts(q *quotient, units []int32, self int32) []int32 {
	out := m.idxScratch[:0]
	add := func(v int32) {
		if idx := m.unitPart[v]; idx != self && !slices.Contains(out, idx) {
			out = append(out, idx)
		}
	}
	for _, u := range units {
		for _, v := range q.succs(u) {
			add(v)
		}
		for _, v := range q.preds(u) {
			add(v)
		}
	}
	m.idxScratch = out
	return out
}

// mergePhase runs the three IO-bound-first rounds of Algorithm 1's phase 3
// over whole partitions at coarse granularity, sweeping until no merge is
// accepted.
func (m *mlState) mergePhase(q *quotient) error {
	specs := []struct{ candIO, partnerIO bool }{
		{true, true},   // within the IO-bound list
		{true, false},  // IO-bound against everything
		{false, false}, // everything
	}
	for _, spec := range specs {
		for {
			merged := 0
			order := m.liveSorted(func(p *mlPart) bool {
				return !spec.candIO || !p.est.ComputeBound()
			})
			for _, ci := range order {
				a := m.parts[ci]
				if a.dead {
					continue
				}
				if err := m.cancelled(); err != nil {
					return err
				}
				neigh := m.adjacentParts(q, a.units, ci)
				m.sortByTW(neigh)
				for _, pi := range neigh {
					b := m.parts[pi]
					if spec.partnerIO && b.est.ComputeBound() {
						continue
					}
					if m.extPath(q, ci, pi, -1) || m.extPath(q, pi, ci, -1) {
						continue
					}
					union := mergeSorted(nil, a.members, b.members)
					est, err := m.eng.Estimate(union)
					if err != nil {
						continue
					}
					sc := gcd64(a.scale, b.scale)
					tw := est.TUS * float64(sc)
					if tw >= a.tw+b.tw {
						continue
					}
					m.commitMerge(ci, pi, union, est, sc, tw)
					merged++
					break
				}
			}
			m.stats.MergeRounds++
			m.stats.Merges += merged
			if merged == 0 {
				break
			}
		}
	}
	return nil
}

// reaches reports whether a quotient walk from starts — along successors
// when fwd, else predecessors — arrives at a stop unit, passing only through
// pass units whose topological position lies strictly between lo and hi. A
// stop unit adjacent to a start counts only when direct. Positions strictly
// increase along every edge, so bounds set where no unit can still lead to a
// stop prune without changing the answer. This is the one search behind
// every quotient convexity check; stop and pass are disjoint in each.
func (m *mlState) reaches(q *quotient, starts []int32, fwd bool, lo, hi int32, direct bool, stop, pass func(int32) bool) bool {
	next := q.succs
	if !fwd {
		next = q.preds
	}
	m.visit.Reset()
	stack := m.queue[:0]
	found := false
	step := func(v int32, counts bool) {
		switch {
		case stop(v):
			found = found || counts
		case pass(v) && lo < q.topoPos[v] && q.topoPos[v] < hi && !m.visit.Has(sdf.NodeID(v)):
			m.visit.Add(sdf.NodeID(v))
			stack = append(stack, v)
		}
	}
	for _, s := range starts {
		for _, v := range next(s) {
			step(v, direct)
		}
	}
	for len(stack) > 0 && !found {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range next(x) {
			step(v, true)
		}
	}
	m.queue = stack[:0]
	return found
}

// extPath reports whether a quotient path leaves partition from, traverses
// only units outside the candidate union, and enters partition to. All
// parts being convex, the union is convex iff no such path exists between
// any ordered pair of its constituents (a direct edge is plain adjacency,
// not a violation). excl, when not -1, is a further union member: a path
// entering it is not external — it is neither followed nor counted as a hit
// (its own pair checks cover it). Nothing at or beyond to's max position
// can reach to.
func (m *mlState) extPath(q *quotient, from, to, excl int32) bool {
	return m.reaches(q, m.parts[from].units, true, -1, m.parts[to].maxPos, false,
		func(v int32) bool { return m.unitPart[v] == to },
		func(v int32) bool { p := m.unitPart[v]; return p != from && p != to && p != excl })
}

// tripleConvex reports whether a ∪ b ∪ c is convex: any violating path would
// route externally between two of the three (an external segment from a part
// back to itself is ruled out by that part's own convexity), so checking the
// six ordered pairs — each with the third part counted as interior — is
// exact.
func (m *mlState) tripleConvex(q *quotient, a, b, c int32) bool {
	return !m.extPath(q, a, b, c) && !m.extPath(q, b, a, c) &&
		!m.extPath(q, a, c, b) && !m.extPath(q, c, a, b) &&
		!m.extPath(q, b, c, a) && !m.extPath(q, c, b, a)
}

// threeWayPhase mirrors Algorithm 1's simultaneous phase at coarse
// granularity: a partition plus two of its neighbours merge at once when the
// pairwise criterion fails but the three-way one holds — the move that
// collapses split-join fan-outs. Restarts the scan after each accepted
// merge, as the exact phase does.
func (m *mlState) threeWayPhase(q *quotient) error {
	for {
		mergedAny := false
		for ci := int32(0); ci < int32(len(m.parts)) && !mergedAny; ci++ {
			a := m.parts[ci]
			if a.dead {
				continue
			}
			if err := m.cancelled(); err != nil {
				return err
			}
			neigh := m.adjacentParts(q, a.units, ci)
			slices.Sort(neigh)
			for x := 0; x < len(neigh) && !mergedAny; x++ {
				for y := x + 1; y < len(neigh); y++ {
					if !m.tripleConvex(q, ci, neigh[x], neigh[y]) {
						continue
					}
					b, c := m.parts[neigh[x]], m.parts[neigh[y]]
					union := mergeSorted(nil, mergeSorted(nil, a.members, b.members), c.members)
					est, err := m.eng.Estimate(union)
					if err != nil {
						continue
					}
					sc := gcd64(gcd64(a.scale, b.scale), c.scale)
					tw := est.TUS * float64(sc)
					if tw >= a.tw+b.tw+c.tw {
						continue
					}
					m.commitMerge(ci, neigh[x], union, est, sc, tw)
					m.absorb(m.parts[len(m.parts)-1], neigh[y])
					m.stats.Merges++
					mergedAny = true
					break
				}
			}
		}
		m.stats.MergeRounds++
		if !mergedAny {
			break
		}
	}
	return nil
}

// absorb folds partition pi into np (already committed as a merge of other
// parts), extending its units and positions.
func (m *mlState) absorb(np *mlPart, pi int32) {
	c := m.parts[pi]
	c.dead = true
	np.units = mergeSorted(nil, np.units, c.units)
	np.minPos = min(np.minPos, c.minPos)
	np.maxPos = max(np.maxPos, c.maxPos)
	self := int32(len(m.parts) - 1)
	for _, u := range c.units {
		m.unitPart[u] = self
	}
}

func (m *mlState) commitMerge(ci, pi int32, union []sdf.NodeID, est *pee.Estimate, sc int64, tw float64) {
	a, b := m.parts[ci], m.parts[pi]
	a.dead, b.dead = true, true
	np := &mlPart{
		units:   mergeSorted(nil, a.units, b.units),
		members: union,
		est:     est,
		scale:   sc,
		tw:      tw,
		minPos:  min(a.minPos, b.minPos),
		maxPos:  max(a.maxPos, b.maxPos),
	}
	m.parts = append(m.parts, np)
	idx := int32(len(m.parts) - 1)
	for _, u := range np.units {
		m.unitPart[u] = idx
	}
}

// allNodesPhase attempts the single-partition compilation, the guarantee
// that multi-partition output is never worse than one kernel (Algorithm 1's
// last step).
func (m *mlState) allNodesPhase(numUnits int) error {
	if err := m.cancelled(); err != nil {
		return err
	}
	if m.liveCount() <= 1 {
		return nil
	}
	all := make([]sdf.NodeID, m.g.NumNodes())
	for i := range all {
		all[i] = sdf.NodeID(i)
	}
	est, err := m.eng.Estimate(all)
	if err != nil {
		return nil // does not fit as one kernel; keep the multi-partition result
	}
	var sc int64
	var combined float64
	for _, p := range m.parts {
		if !p.dead {
			sc = gcd64(sc, p.scale)
			combined += p.tw
		}
	}
	tw := est.TUS * float64(sc)
	if tw >= combined {
		return nil
	}
	for _, p := range m.parts {
		p.dead = true
	}
	units := make([]int32, numUnits)
	idx := int32(len(m.parts))
	for u := range units {
		units[u] = int32(u)
		m.unitPart[u] = idx
	}
	m.parts = append(m.parts, &mlPart{units: units, members: all, est: est, scale: sc, tw: tw,
		minPos: 0, maxPos: int32(numUnits) - 1})
	return nil
}

// mergeSorted merges two ascending slices into dst's storage (nil for a
// fresh slice).
func mergeSorted[T int32 | sdf.NodeID](dst, a, b []T) []T {
	out := slices.Grow(dst[:0], len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// subtractSorted returns a \ b for ascending slices (b ⊆ a in our usage)
// in dst's storage.
func subtractSorted(dst, a, b []sdf.NodeID) []sdf.NodeID {
	out := slices.Grow(dst[:0], len(a)-len(b))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}
