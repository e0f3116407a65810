package gpusim

import (
	"container/heap"
	"context"
	"math"

	"streammap/internal/topology"
)

// The temporal engine: an event-driven simulation of the pipelined
// multi-GPU execution of Figure 3.5. Kernels are queued per GPU and issued
// out of order across fragments (each fragment is an asynchronous CUDA
// stream, so a GPU runs whichever stream's kernel is ready first), while
// transfers reserve every PCIe link on their route cut-through style.

// kernelKey identifies kernel instance (partition, fragment).
type kernelKey struct {
	part int
	frag int
}

// simEventKind discriminates events.
type simEventKind int

const (
	evKernelDone simEventKind = iota
	evTransferDone
)

type simEvent struct {
	time float64
	seq  int // tie-break for determinism
	kind simEventKind

	kernel kernelKey // for evKernelDone
	dep    depRef    // for evTransferDone
}

type depRef struct {
	target kernelKey
	isOut  bool // host-output transfer completion (no target kernel)
	frag   int
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// readyKernel sits in a GPU's dispatch queue.
type readyKernel struct {
	ready float64
	frag  int
	topo  int
	part  int
}

type readyQueue []readyKernel

func (q readyQueue) Len() int { return len(q) }

// Less prefers the oldest fragment (stream), then upstream position: the
// oldest-stream-first arbitration of the hardware work scheduler. Kernels
// enter the queue only once ready, so this never blocks on unready work.
func (q readyQueue) Less(i, j int) bool {
	if q[i].frag != q[j].frag {
		return q[i].frag < q[j].frag
	}
	if q[i].topo != q[j].topo {
		return q[i].topo < q[j].topo
	}
	return q[i].ready < q[j].ready
}
func (q readyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x interface{}) { *q = append(*q, x.(readyKernel)) }
func (q *readyQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// timingInput is everything the engine needs, precomputed by Run.
type timingInput struct {
	ctx       context.Context
	topo      *topology.Tree
	fragments int
	numParts  int
	gpuOf     []int
	topoIdx   []int // partition -> position in PDG topo order
	kernelUS  []float64

	// per partition: incoming crossing/local edges (producer, bytes) and
	// host I/O bytes per fragment.
	inLocal  [][]int // producer partition ids on the same GPU
	inRemote [][]remoteEdge
	hostIn   []int64
	hostOut  []int64
	viaHost  bool
}

type remoteEdge struct {
	from  int
	bytes int64
}

// timingOutput mirrors the Result timing fields.
type timingOutput struct {
	fragEnd  []float64
	gpuBusy  []float64
	linkBusy []float64
	makespan float64
}

// simulateTiming runs the event loop, checking the context periodically so
// long simulations are cancellable.
func simulateTiming(in timingInput) (timingOutput, error) {
	t := in.topo
	NF := in.fragments
	P := in.numParts

	route := func(src, dst int) []int {
		if in.viaHost && src != topology.Host && dst != topology.Host {
			return t.RouteViaHost(src, dst)
		}
		return t.Route(src, dst)
	}

	// Dependency counts per kernel instance: incoming edges + host input
	// transfer + a release dependency (time zero for fragment 0; the
	// previous instance's completion — the double-buffer rotation — after).
	deps := make([][]int, P)
	ready := make([][]float64, P)
	outLocal := make([][]int, P)
	outRemote := make([][]remoteEdge, P)
	for q := 0; q < P; q++ {
		for _, src := range in.inLocal[q] {
			outLocal[src] = append(outLocal[src], q)
		}
		for _, re := range in.inRemote[q] {
			outRemote[re.from] = append(outRemote[re.from], remoteEdge{from: q, bytes: re.bytes})
		}
	}
	for p := 0; p < P; p++ {
		deps[p] = make([]int, NF)
		ready[p] = make([]float64, NF)
		base := len(in.inLocal[p]) + len(in.inRemote[p]) + 1 // +1 release
		for n := 0; n < NF; n++ {
			d := base
			if in.hostIn[p] > 0 {
				d++ // the host transfer itself is a dependency
			}
			deps[p][n] = d
		}
	}

	linkFree := make([]float64, t.NumLinks())
	linkBusy := make([]float64, t.NumLinks())
	gpuBusyUntil := make([]float64, t.NumGPUs())
	gpuBusy := make([]float64, t.NumGPUs())
	queues := make([]readyQueue, t.NumGPUs())
	fragEnd := make([]float64, NF)

	var events eventHeap
	seq := 0
	push := func(e simEvent) {
		e.seq = seq
		seq++
		heap.Push(&events, e)
	}

	// startTransfer reserves the route at the earliest slot after `from`.
	// Links are costed individually: on a heterogeneous tree each link holds
	// for bytes over its own bandwidth, and the transfer completes after the
	// slowest link drains plus the largest latency on the route (cut-through
	// pipelining: the bottleneck link paces the whole route). On a
	// homogeneous tree every hold is equal and the arithmetic below is
	// bit-identical to start + latency + bytes/bandwidth.
	startTransfer := func(from float64, r []int, bytes int64) float64 {
		if len(r) == 0 || bytes <= 0 {
			return from
		}
		start := from
		for _, l := range r {
			start = math.Max(start, linkFree[l])
		}
		lat, maxHold := 0.0, 0.0
		for _, l := range r {
			hold := float64(bytes) / (t.LinkBandwidthGBs(l) * 1e3)
			linkFree[l] = start + hold
			linkBusy[l] += hold
			lat = math.Max(lat, t.LinkLatencyUS(l))
			maxHold = math.Max(maxHold, hold)
		}
		return start + lat + maxHold
	}

	dispatch := func(g int, now float64) {
		for gpuBusyUntil[g] <= now && queues[g].Len() > 0 {
			rk := heap.Pop(&queues[g]).(readyKernel)
			start := math.Max(now, rk.ready)
			dur := in.kernelUS[rk.part]
			end := start + dur
			gpuBusyUntil[g] = end
			gpuBusy[g] += dur
			push(simEvent{time: end, kind: evKernelDone, kernel: kernelKey{rk.part, rk.frag}})
			// One kernel at a time: the GPU is busy until `end`, so stop.
			break
		}
	}

	var resolve func(k kernelKey, at float64)
	resolve = func(k kernelKey, at float64) {
		p, n := k.part, k.frag
		if ready[p][n] < at {
			ready[p][n] = at
		}
		deps[p][n]--
		if deps[p][n] > 0 {
			return
		}
		g := in.gpuOf[p]
		heap.Push(&queues[g], readyKernel{ready: ready[p][n], frag: n, topo: in.topoIdx[p], part: p})
		dispatch(g, ready[p][n])
	}

	// launchHostIn schedules the host input transfer for (p, n) at `from`.
	launchHostIn := func(p, n int, from float64) {
		done := startTransfer(from, route(topology.Host, in.gpuOf[p]), in.hostIn[p])
		push(simEvent{time: done, kind: evTransferDone, dep: depRef{target: kernelKey{p, n}}})
	}

	// Seed fragment 0: release every partition's first instance and start
	// its host input streams. Double buffering keeps one fragment of input
	// in flight ahead of the compute, so two transfers start immediately.
	for p := 0; p < P; p++ {
		if in.hostIn[p] > 0 {
			launchHostIn(p, 0, 0)
			if NF > 1 {
				launchHostIn(p, 1, 0)
			}
		}
		resolve(kernelKey{p, 0}, 0)
	}

	popped := 0
	for events.Len() > 0 {
		// Check on the first pop (so an already-cancelled context aborts
		// even tiny simulations) and then every 4096 events.
		if popped++; popped%4096 == 1 {
			if err := in.ctx.Err(); err != nil {
				return timingOutput{}, err
			}
		}
		e := heap.Pop(&events).(simEvent)
		switch e.kind {
		case evKernelDone:
			p, n := e.kernel.part, e.kernel.frag
			if e.time > fragEnd[n] {
				fragEnd[n] = e.time
			}
			g := in.gpuOf[p]
			// Outgoing data: local consumers see it immediately; remote
			// consumers after a transfer; host output closes the fragment.
			for _, q := range outLocal[p] {
				resolve(kernelKey{q, n}, e.time)
			}
			for _, oe := range outRemote[p] {
				q := oe.from // consumer partition (reused field)
				done := startTransfer(e.time, route(g, in.gpuOf[q]), oe.bytes)
				push(simEvent{time: done, kind: evTransferDone, dep: depRef{target: kernelKey{q, n}}})
			}
			if in.hostOut[p] > 0 {
				done := startTransfer(e.time, route(g, topology.Host), in.hostOut[p])
				push(simEvent{time: done, kind: evTransferDone, dep: depRef{isOut: true, frag: n}})
			}
			// Next instance of this partition: double buffer freed. The
			// buffer this kernel consumed can now receive input two
			// fragments ahead (one is already streaming).
			if n+1 < NF {
				resolve(kernelKey{p, n + 1}, e.time)
			}
			if in.hostIn[p] > 0 && n+2 < NF {
				launchHostIn(p, n+2, e.time)
			}
			dispatch(g, e.time)

		case evTransferDone:
			if e.dep.isOut {
				if e.time > fragEnd[e.dep.frag] {
					fragEnd[e.dep.frag] = e.time
				}
				continue
			}
			resolve(e.dep.target, e.time)
			dispatch(in.gpuOf[e.dep.target.part], e.time)
		}
	}

	out := timingOutput{
		fragEnd:  fragEnd,
		gpuBusy:  gpuBusy,
		linkBusy: linkBusy,
	}
	for _, fe := range fragEnd {
		out.makespan = math.Max(out.makespan, fe)
	}
	return out, nil
}
