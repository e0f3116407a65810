// Package smreq computes the shared-memory (SM) requirement of a partition
// and a concrete SM buffer layout for code generation.
//
// A partition executes as one GPU kernel with the one-kernel-for-graph
// scheme (paper §2.1.3): filters fire in a sequential schedule inside the
// SM, so channel buffers have lifetimes and can share space. The paper's
// Figure 3.2 observes that pipeline-internal buffers are short-lived (the SM
// requirement of a pipeline barely exceeds its filters') while split/join
// buffers live long and stack up. This package makes that precise with an
// interval-based lifetime analysis over the schedule, plus a best-fit
// free-list allocator whose high-water mark is the SM requirement used by
// both the performance estimation engine and the code generator — the same
// number in both places, minimizing the paper's "static discrepancy".
//
// Primary I/O buffers (cut edges and inherited graph I/O) are double
// buffered (working set + transfer buffer), so they are charged twice.
package smreq

import (
	"fmt"
	"sort"

	"streammap/internal/sdf"
)

// BufferKind classifies SM buffers.
type BufferKind int

const (
	// Internal is a channel buffer fully inside the partition.
	Internal BufferKind = iota
	// PrimaryIn is an input buffer fed from global memory (double buffered).
	PrimaryIn
	// PrimaryOut is an output buffer drained to global memory (double buffered).
	PrimaryOut
	// State is a filter's persistent state.
	State
)

func (k BufferKind) String() string {
	switch k {
	case Internal:
		return "internal"
	case PrimaryIn:
		return "in"
	case PrimaryOut:
		return "out"
	case State:
		return "state"
	}
	return fmt.Sprintf("BufferKind(%d)", int(k))
}

// Buffer is one allocated SM region.
type Buffer struct {
	Kind   BufferKind
	Edge   sdf.EdgeID  // sub edge id for Internal; -1 otherwise
	Port   sdf.PortRef // sub port for PrimaryIn/PrimaryOut; node for State
	Bytes  int64       // size of one copy
	Copies int         // 2 for double-buffered I/O, else 1
	Start  int         // first schedule step alive (inclusive)
	End    int         // last schedule step alive (inclusive)
	Offset int64       // assigned SM byte offset (copies are contiguous)
}

// Total returns Bytes*Copies.
func (b Buffer) Total() int64 { return b.Bytes * int64(b.Copies) }

// Layout is the result of analyzing one partition.
type Layout struct {
	Schedule     []sdf.NodeID // sub node ids in execution order
	Buffers      []Buffer
	PeakBytes    int64 // total SM requirement per execution
	MaxLiveBytes int64 // schedule-step lower bound on the peak (AnalyzeShared only)
}

// Analyze computes the SM layout for one execution of the subgraph (one sub
// steady-state iteration) under the static allocation the one-kernel
// code generator actually emits: every buffer gets a fixed offset for the
// whole kernel, because W interleaved executions and the concurrently
// running data-transfer warps leave no synchronization point at which a
// buffer could be recycled between schedule steps. The SM requirement is
// therefore the sum of all buffer sizes — sub-additive for pipelines (the
// halves share their boundary buffer once merged) and additive for
// split-join branches, which is exactly the Figure 3.2 contrast that drives
// partitioning.
//
// AnalyzeShared is the lifetime-sharing alternative kept for the allocator
// ablation.
func Analyze(s *sdf.Subgraph) (*Layout, error) {
	lay, err := analyzeLifetimes(s)
	if err != nil {
		return nil, err
	}
	var off int64
	for i := range lay.Buffers {
		lay.Buffers[i].Offset = off
		off += lay.Buffers[i].Total()
	}
	lay.PeakBytes = off
	return lay, nil
}

// AnalyzeShared computes the layout with lifetime-based buffer sharing: a
// best-fit free-list allocator over the sequential schedule. It is the
// optimistic lower bound on SM use (valid only for W=1 kernels with a
// barrier between schedule steps) and exists for the allocator ablation
// benchmark.
func AnalyzeShared(s *sdf.Subgraph) (*Layout, error) {
	lay, err := analyzeLifetimes(s)
	if err != nil {
		return nil, err
	}
	lay.MaxLiveBytes = maxLive(lay.Buffers, len(lay.Schedule))
	if err := allocate(lay); err != nil {
		return nil, err
	}
	return lay, nil
}

// PeakBytesView computes Analyze(...).PeakBytes for the induced subgraph a
// SubView describes, without extracting it: the static allocation's SM
// requirement is the plain sum of all buffer sizes, so no schedule positions
// or offsets are needed — only the cycle check Analyze performs via
// TopoOrder. It allocates nothing and returns bit-identical bytes (and the
// same error condition, with TopoOrder's message) as Analyze on the
// materialized subgraph; the estimation engine's hot path runs on it.
func PeakBytesView(v *sdf.SubView) (int64, error) {
	if !v.Acyclic() {
		// Mirrors Analyze's error for an unschedulable subgraph: TopoOrder's
		// message over the extracted graph's name (parent name + members).
		return 0, fmt.Errorf("smreq: sdf: graph %s%s has a cycle without sufficient initial tokens",
			v.G.Name, sdf.FormatMembers(v.Members()))
	}
	g := v.G
	var total int64
	for i, pid := range v.Members() {
		n := g.Nodes[pid]
		f := n.Filter
		rep := v.RepAt(i)
		// Internal out-edges, attributed to their producer; primary outputs.
		for p := range f.Outputs {
			eid := n.Out(p)
			if eid != -1 && v.Has(g.Edges[eid].Dst) {
				e := g.Edges[eid]
				var bytes int64
				if !f.ZeroCopy {
					// EdgeBytes on the sub: rep(src) * push, in bytes.
					bytes = rep * int64(e.Push) * sdf.TokenBytes
				}
				if e.Peek > e.Pop || len(e.Initial) > 0 {
					extra := int64(e.Peek-e.Pop) * sdf.TokenBytes
					if int64(len(e.Initial))*sdf.TokenBytes > extra {
						extra = int64(len(e.Initial)) * sdf.TokenBytes
					}
					bytes += extra
				}
				total += bytes
			} else {
				// Primary output: double buffered.
				total += 2 * rep * int64(f.Outputs[p]) * sdf.TokenBytes
			}
		}
		// Primary inputs: double buffered.
		for p := range f.Inputs {
			eid := n.In(p)
			if eid == -1 || !v.Has(g.Edges[eid].Src) {
				total += 2 * rep * int64(f.Inputs[p].Pop) * sdf.TokenBytes
			}
		}
		// Persistent filter state.
		if len(f.Init) > 0 {
			total += int64(len(f.Init)) * sdf.TokenBytes
		}
	}
	return total, nil
}

// analyzeLifetimes builds the buffer list with lifetimes against the
// sequential schedule. The subgraph must be acyclic up to delay tokens.
func analyzeLifetimes(s *sdf.Subgraph) (*Layout, error) {
	sub := s.Sub
	sched, err := sub.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("smreq: %w", err)
	}
	pos := make([]int, sub.NumNodes())
	for i, id := range sched {
		pos[id] = i
	}
	last := len(sched) - 1

	var bufs []Buffer
	for _, e := range sub.Edges {
		bytes := sub.EdgeBytes(e)
		if sub.Nodes[e.Src].Filter.ZeroCopy {
			// The producer was eliminated (Chapter V): its outputs alias the
			// buffer it would have read, costing no shared memory.
			bytes = 0
		}
		b := Buffer{
			Kind:   Internal,
			Edge:   e.ID,
			Bytes:  bytes,
			Copies: 1,
			Start:  pos[e.Src],
			End:    pos[e.Dst],
		}
		if e.Peek > e.Pop || len(e.Initial) > 0 {
			// Sliding-window or delayed channels persist across executions.
			extra := int64(e.Peek-e.Pop) * sdf.TokenBytes
			if int64(len(e.Initial))*sdf.TokenBytes > extra {
				extra = int64(len(e.Initial)) * sdf.TokenBytes
			}
			b.Bytes += extra
			b.Start, b.End = 0, last
		}
		if b.Start > b.End { // delay-token back edge: consumer precedes producer
			b.Start, b.End = 0, last
		}
		bufs = append(bufs, b)
	}
	for _, p := range sub.InputPorts() {
		bufs = append(bufs, Buffer{
			Kind:   PrimaryIn,
			Edge:   -1,
			Port:   p,
			Bytes:  sub.PortTokens(p, true) * sdf.TokenBytes,
			Copies: 2,
			Start:  0, // streamed in before compute; live until consumed
			End:    pos[p.Node],
		})
	}
	for _, p := range sub.OutputPorts() {
		bufs = append(bufs, Buffer{
			Kind:   PrimaryOut,
			Edge:   -1,
			Port:   p,
			Bytes:  sub.PortTokens(p, false) * sdf.TokenBytes,
			Copies: 2,
			Start:  pos[p.Node],
			End:    last, // streamed out after compute
		})
	}
	for _, n := range sub.Nodes {
		if len(n.Filter.Init) == 0 {
			continue
		}
		bufs = append(bufs, Buffer{
			Kind:   State,
			Edge:   -1,
			Port:   sdf.PortRef{Node: n.ID, Port: 0},
			Bytes:  int64(len(n.Filter.Init)) * sdf.TokenBytes,
			Copies: 1,
			Start:  0,
			End:    last,
		})
	}

	return &Layout{Schedule: sched, Buffers: bufs}, nil
}

func maxLive(bufs []Buffer, steps int) int64 {
	var peak int64
	for step := 0; step < steps; step++ {
		var live int64
		for _, b := range bufs {
			if b.Start <= step && step <= b.End {
				live += b.Total()
			}
		}
		if live > peak {
			peak = live
		}
	}
	return peak
}

// interval is a free SM region [off, off+size).
type interval struct {
	off, size int64
}

// allocate assigns offsets with a best-fit free list processed in schedule
// order, recording the high-water mark.
func allocate(lay *Layout) error {
	order := make([]int, len(lay.Buffers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ba, bb := lay.Buffers[order[a]], lay.Buffers[order[b]]
		if ba.Start != bb.Start {
			return ba.Start < bb.Start
		}
		if ba.Total() != bb.Total() {
			return ba.Total() > bb.Total() // larger first packs better
		}
		return order[a] < order[b]
	})

	var free []interval
	var top int64 // end of the highest allocation ever made
	alloc := func(size int64) int64 {
		best := -1
		for i, f := range free {
			if f.size >= size && (best == -1 || f.size < free[best].size) {
				best = i
			}
		}
		if best >= 0 {
			off := free[best].off
			free[best].off += size
			free[best].size -= size
			if free[best].size == 0 {
				free = append(free[:best], free[best+1:]...)
			}
			return off
		}
		off := top
		top += size
		return off
	}
	release := func(off, size int64) {
		if size == 0 {
			return
		}
		free = append(free, interval{off, size})
		sort.Slice(free, func(i, j int) bool { return free[i].off < free[j].off })
		// Coalesce.
		out := free[:0]
		for _, f := range free {
			if n := len(out); n > 0 && out[n-1].off+out[n-1].size == f.off {
				out[n-1].size += f.size
			} else {
				out = append(out, f)
			}
		}
		free = out
	}

	// Sweep schedule steps, freeing then allocating.
	byStart := map[int][]int{}
	byEnd := map[int][]int{}
	for _, i := range order {
		b := lay.Buffers[i]
		byStart[b.Start] = append(byStart[b.Start], i)
		byEnd[b.End] = append(byEnd[b.End], i)
	}
	steps := len(lay.Schedule)
	for step := 0; step < steps; step++ {
		for _, i := range byStart[step] {
			b := &lay.Buffers[i]
			b.Offset = alloc(b.Total())
		}
		for _, i := range byEnd[step] {
			b := lay.Buffers[i]
			release(b.Offset, b.Total())
		}
	}
	lay.PeakBytes = top
	if lay.PeakBytes < lay.MaxLiveBytes {
		return fmt.Errorf("smreq: allocator peak %d below live lower bound %d", lay.PeakBytes, lay.MaxLiveBytes)
	}
	return nil
}
