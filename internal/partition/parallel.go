// Parallel candidate scoring for Algorithm 1.
//
// The partitioner stays deterministic by construction: workers only *score*
// candidate merges speculatively (filling the estimation engine's memo), and
// independent pipeline chains are windowed concurrently; every commit
// decision is then made by one serial scan, in the same candidate order at
// any worker count. RunCtx with workers > 1 produces the Result of
// RunCtx(ctx, g, eng, 1), faster.
package partition

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// RunCtx executes Algorithm 1 with a worker pool of the given width for
// candidate scoring. workers <= 0 selects GOMAXPROCS; workers == 1 scores
// every candidate on the calling goroutine. The context cancels the run
// between phases and between merge rounds.
func RunCtx(ctx context.Context, g *sdf.Graph, eng *pee.Engine, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &partitioner{g: g, eng: eng, ctx: ctx, workers: workers,
		assigned: make([]int, g.NumNodes())}
	return p.run()
}

// cancelled reports a context cancellation, if any.
func (p *partitioner) cancelled() error {
	if err := p.ctx.Err(); err != nil {
		return fmt.Errorf("partition: cancelled: %w", err)
	}
	return nil
}

// scatter runs fn(i) for i in [0, n) on the worker pool. With one worker it
// degenerates to a plain loop.
func (p *partitioner) scatter(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	take := func() int { return int(next.Add(1) - 1) }
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if p.ctx.Err() != nil {
					return
				}
				i := take()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// prewarmSingletons speculatively scores the singleton set of every
// still-unassigned node (phase 1 and 2 consume these estimates).
func (p *partitioner) prewarmSingletons() {
	if p.workers <= 1 {
		return
	}
	var ids []sdf.NodeID
	for _, n := range p.g.Nodes {
		if p.assigned[n.ID] == -1 {
			ids = append(ids, n.ID)
		}
	}
	p.scatter(len(ids), func(i int) {
		p.eng.EstimateSet(sdf.SingletonSet(p.g.NumNodes(), ids[i]))
	})
}

// prewarmUnions speculatively scores candidate union sets, skipping sets the
// engine has already memoized and — mirroring tryMergeSets — sets that are
// not convex (the serial scan never estimates those either). Dedup is by
// 64-bit hash: a collision merely skips a speculative warm-up, which the
// serial commit scan then scores on demand.
func (p *partitioner) prewarmUnions(sets []sdf.NodeSet) {
	if p.workers <= 1 || len(sets) == 0 {
		return
	}
	seen := make(map[uint64]bool, len(sets))
	todo := sets[:0:0]
	for _, s := range sets {
		k := s.Hash()
		if seen[k] || p.eng.Cached(s) {
			continue
		}
		seen[k] = true
		todo = append(todo, s)
	}
	p.scatter(len(todo), func(i int) {
		if p.isConvex(todo[i]) {
			p.eng.EstimateSet(todo[i])
		}
	})
}

// windowsOfChain computes phase 1's merge windows for one pipeline chain —
// grow a window from the head; on the first failed merge, restart a fresh
// window at the failing node (Algorithm 1 lines 2-10) — without touching
// shared partitioner state; chains are node-disjoint, so phase1 windows them
// concurrently and installs the results in chain order.
func (p *partitioner) windowsOfChain(chain []sdf.NodeID) ([]*Partition, error) {
	var out []*Partition
	i := 0
	for i < len(chain) {
		if p.assigned[chain[i]] != -1 {
			i++
			continue
		}
		cur, err := p.makePartition(sdf.SingletonSet(p.g.NumNodes(), chain[i]))
		if err != nil {
			return nil, fmt.Errorf("partition: node %d (%s) does not fit on the device alone: %w",
				chain[i], p.g.Nodes[chain[i]].Filter.Name, err)
		}
		j := i + 1
		for j < len(chain) && p.assigned[chain[j]] == -1 {
			if err := p.cancelled(); err != nil {
				return nil, err
			}
			single, err := p.makePartition(sdf.SingletonSet(p.g.NumNodes(), chain[j]))
			if err != nil {
				return nil, err
			}
			union := p.borrowSet()
			union.CopyFrom(cur.Set)
			union.Add(chain[j])
			merged := p.tryMergeSets(union, cur.TWus()+single.TWus())
			p.returnSet(union)
			if merged == nil {
				break
			}
			cur = merged
			j++
		}
		out = append(out, cur)
		i = j
	}
	return out, nil
}

// phase1 merges filters within each innermost pipeline: it windows all
// chains on the worker pool, then installs each chain's windows serially in
// chain order. Singleton estimates are prewarmed first so every window grows
// against a hot memo.
func (p *partitioner) phase1() error {
	p.prewarmSingletons()
	chains := p.pipelineChains()
	wins := make([][]*Partition, len(chains))
	errs := make([]error, len(chains))
	p.scatter(len(chains), func(i int) {
		wins[i], errs[i] = p.windowsOfChain(chains[i])
	})
	if err := p.cancelled(); err != nil {
		return err
	}
	for i := range chains {
		if errs[i] != nil {
			return errs[i]
		}
		for _, part := range wins[i] {
			p.install(part)
		}
	}
	return nil
}
