// The one concurrent pass of Algorithm 1.
//
// Phase 1 windows the pipeline chains on a worker pool: chains are
// node-disjoint, so each worker does exactly the merges the serial scan would
// do for its chain, and the windows are installed serially in chain order.
// Phases 2-4 are the paper's serial greedy scan at any worker count. RunCtx
// with workers > 1 therefore produces the Result of RunCtx(ctx, g, eng, 1)
// from the same engine queries.
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
// phase 1's chains. workers <= 0 selects GOMAXPROCS; workers == 1 runs
// everything on the calling goroutine. The context cancels the run between
// phases and between merge rounds.
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
// chain order.
func (p *partitioner) phase1() error {
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
