package partition

import (
	"sync"
	"sync/atomic"

	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// scanGate is how many groups a scan's caller walks alone before it brings
// in the other goroutines: most phase-3 re-scans merge within their first
// few groups, and forking for those costs more than it saves.
const scanGate = 8

// A scanEval evaluates group g of a restart scan of phase 3 or 4: it tries
// the group's unions in the serial scan's order and returns the first
// profitable merge. It changes no partition, so groups may be evaluated in
// any order, on any goroutine.
type scanEval func(w *scanWorker, g int) *merge

// merge is a profitable union and the partitions it replaces.
type merge struct {
	part    *cand
	victims []int
}

// scanWorker is one goroutine's scratch. Its queries of this scan wait for
// the caller's replay, their member lists back to back in members.
type scanWorker struct {
	union   sdf.NodeSet
	convex  *sdf.ConvexChecker
	scorer  pee.Scorer
	members []sdf.NodeID
	queries []query
	adj     []int
	g       int           // the group being evaluated
	hit     *atomic.Int64 // the scan's lowest group with a merge so far
}

// query is one peeked engine answer.
type query struct {
	members []sdf.NodeID
	est     *pee.Estimate
	err     error
}

// groupRec is what evaluating a group left: its worker, queries and merge.
type groupRec struct {
	w  *scanWorker
	qs []query
	m  *merge
}

// abandoned reports that a lower group has merged, so the current group
// will never be replayed.
func (w *scanWorker) abandoned() bool { return int64(w.g) > w.hit.Load() }

// try is tryMergeSets over w.union with the engine's memo read-only: the
// query is recorded for the replay, not counted. A union an earlier group
// of the scan tried without merging is not scored again: its query is in
// the memo by the time the replay reaches this one, a hit that rejects.
func (w *scanWorker) try(p *partitioner, combinedTW float64, tried bool) *cand {
	if !w.convex.IsConvex(w.union) {
		return nil
	}
	off := len(w.members)
	w.members = w.union.AppendMembers(w.members)
	q := query{members: w.members[off:]}
	if !tried {
		q.est, q.err = p.eng.Peek(&w.scorer, q.members)
	}
	w.queries = append(w.queries, q)
	if tried || q.err != nil {
		return nil // an SM violation or unschedulable union is rejected
	}
	scale := p.eng.ScaleOf(q.members)
	if q.est.TUS*float64(scale) >= combinedTW {
		return nil
	}
	return &cand{set: w.union.Clone(), est: q.est, scale: scale}
}

// scan returns the first profitable merge of groups 0..n-1 in group order,
// the serial scan's first, or nil. Up to p.workers goroutines, the caller
// included, claim groups from one cursor, and none past the lowest group
// that merged. The caller then settles, in group order up to that merge,
// every query the serial scan would have made, so the engine's Stats and
// memo end as the serial scan leaves them; work past the merge is dropped.
func (p *partitioner) scan(n int, eval scanEval) (*merge, error) {
	if cap(p.recs) < n {
		p.recs = make([]groupRec, n)
	}
	recs := p.recs[:n]
	clear(recs)
	var next, hit atomic.Int64
	hit.Store(int64(n))
	// run evaluates the claimed group g and reports whether to claim more.
	run := func(w *scanWorker, g int64) bool {
		if g >= int64(n) || g > hit.Load() || p.ctx.Err() != nil {
			return false
		}
		w.g, w.hit = int(g), &hit
		lo := len(w.queries)
		m := eval(w, w.g)
		recs[g] = groupRec{w, w.queries[lo:], m}
		for h := hit.Load(); m != nil && g < h && !hit.CompareAndSwap(h, g); h = hit.Load() {
		}
		return m == nil
	}
	reset := func(w *scanWorker) *scanWorker {
		w.members, w.queries = w.members[:0], w.queries[:0]
		return w
	}
	var wg sync.WaitGroup
	for walked, w := 1, reset(p.ws[0]); run(w, next.Add(1)-1); walked++ {
		for i := 1; walked == scanGate && i < p.workers; i++ {
			if len(p.ws) == i {
				p.ws = append(p.ws, &scanWorker{union: sdf.NewNodeSet(p.g.NumNodes()), convex: p.g.NewConvexChecker()})
			}
			// Each helper starts on a group claimed for it here.
			w, g := reset(p.ws[i]), next.Add(1)-1
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ok := run(w, g); ok; ok = run(w, next.Add(1)-1) {
				}
			}()
		}
	}
	wg.Wait()
	if err := p.cancelled(); err != nil {
		return nil, err
	}
	h := int(hit.Load())
	var est *pee.Estimate
	for _, r := range recs[:min(h+1, n)] {
		for _, q := range r.qs {
			est, _ = p.eng.Settle(q.members, q.est, q.err)
		}
	}
	if h == n {
		return nil, nil
	}
	recs[h].m.part.est = est // the memo's verdict, as Estimate returns it
	return recs[h].m, nil
}
