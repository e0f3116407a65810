package gpusim

import (
	"context"
	"fmt"

	"streammap/internal/gpu"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// Machine is the simulated platform: homogeneous GPUs on a PCIe tree.
type Machine struct {
	Device gpu.Device
	Topo   *topology.Tree
}

// Dep is one inter-kernel data dependency: Bytes per parent-graph
// steady-state iteration flow from kernel From to kernel To.
type Dep struct {
	From  int
	To    int
	Bytes int64
}

// Plan is an executable mapping: kernels, their data dependencies, their GPU
// assignment and the pipelining parameters. It is self-contained — plain
// data plus the stream graph, with no reference into the compiler's
// internal structures. The driver lowers a compilation to it, whether the
// compilation was run or rebuilt from an artifact.
type Plan struct {
	Graph   *sdf.Graph
	Machine Machine

	// PerFiringCycles is the profile annotation (cycles for one firing of
	// each filter by a single thread), indexed by parent-graph node id.
	PerFiringCycles []float64

	Kernels []*Kernel
	// Deps lists inter-kernel traffic; whether a dep crosses GPUs (and which
	// links it loads) is resolved against GPUOf at run time.
	Deps []Dep
	// HostInBytes / HostOutBytes give each kernel's primary I/O per parent
	// iteration.
	HostInBytes  []int64
	HostOutBytes []int64
	// Order is a topological order of the kernels.
	Order []int
	// GPUOf assigns each kernel to a GPU.
	GPUOf []int

	// FragmentIters is B: parent-graph iterations per fragment.
	FragmentIters int
	// ViaHost stages all inter-GPU transfers through the host (previous
	// work); otherwise transfers are peer-to-peer.
	ViaHost bool
}

// Result is the outcome of a pipelined multi-GPU run.
type Result struct {
	MakespanUS    float64
	PerFragmentUS float64   // steady-state time per fragment
	GPUBusyUS     []float64 // accumulated kernel time per GPU
	LinkBusyUS    []float64 // accumulated occupancy per directed link
	KernelUS      []float64 // per kernel: one fragment's kernel time
	FragmentEndUS []float64 // completion time of each fragment
	Outputs       [][]sdf.Token
}

// portSource describes where a kernel input port's data comes from.
type portSource struct {
	hostIdx int        // >= 0: index into the application's input streams
	edge    sdf.EdgeID // valid when hostIdx < 0: parent cut edge
}

// portSink describes where a kernel output port's data goes.
type portSink struct {
	hostIdx  int // >= 0: index into the application's output streams
	consumer int // valid when hostIdx < 0: consuming kernel index
	feedIdx  int // input-port index at the consumer's interpreter
}

// RunTiming simulates the pipeline's timing only, without moving data
// through the filters: the schedule is data-independent (stream-graph
// execution times are input-invariant, §4.0.2), so throughput experiments
// can run many fragments cheaply. Outputs is nil in the result.
func RunTiming(plan *Plan, fragments int) (*Result, error) {
	return run(context.Background(), plan, nil, fragments, false)
}

// Run executes `fragments` fragments of the plan: functionally (real tokens
// through real filter code) and temporally (discrete-event pipeline with
// per-link contention). inputs are indexed per Plan.Graph.InputPorts().
func Run(plan *Plan, inputs [][]sdf.Token, fragments int) (*Result, error) {
	return run(context.Background(), plan, inputs, fragments, true)
}

// RunCtx is Run under a context: cancellation aborts between fragments of
// the functional pass and inside the timing event loop.
func RunCtx(ctx context.Context, plan *Plan, inputs [][]sdf.Token, fragments int) (*Result, error) {
	return run(ctx, plan, inputs, fragments, true)
}

func run(ctx context.Context, plan *Plan, inputs [][]sdf.Token, fragments int, functional bool) (*Result, error) {
	if fragments <= 0 {
		return nil, fmt.Errorf("gpusim: fragments must be positive")
	}
	g := plan.Graph
	P := len(plan.Kernels)
	if P == 0 || len(plan.GPUOf) != P || len(plan.Order) != P ||
		len(plan.HostInBytes) != P || len(plan.HostOutBytes) != P {
		return nil, fmt.Errorf("gpusim: inconsistent plan (%d kernels, %d gpuOf, %d order)",
			P, len(plan.GPUOf), len(plan.Order))
	}
	B := plan.FragmentIters
	if B <= 0 {
		return nil, fmt.Errorf("gpusim: FragmentIters must be positive")
	}
	gIn := g.InputPorts()
	gOut := g.OutputPorts()
	if functional && len(inputs) != len(gIn) {
		return nil, fmt.Errorf("gpusim: %d input streams for %d primary inputs", len(inputs), len(gIn))
	}
	hostInIdx := map[sdf.PortRef]int{}
	for i, p := range gIn {
		hostInIdx[p] = i
	}
	hostOutIdx := map[sdf.PortRef]int{}
	for i, p := range gOut {
		hostOutIdx[p] = i
	}

	// Wire up interpreters and port routing (functional mode only): each
	// kernel is extracted into a standalone graph for its interpreter, whose
	// primary ports are the cut edges and the graph I/O it holds.
	interps := make([]*sdf.Interp, P)
	srcs := make([][]portSource, P)                  // per kernel, per interp input index
	sinks := make([][]portSink, P)                   // per kernel, per interp output index
	edgeDest := map[sdf.EdgeID][2]int{}              // parent cut edge -> (consumer kernel, feed idx)
	cutOuts := make([]map[sdf.PortRef]sdf.EdgeID, P) // per kernel: sub output port -> cut edge
	for pi, k := range plan.Kernels {
		if !functional {
			break
		}
		sub, err := g.Extract(k.Members)
		if err != nil {
			return nil, fmt.Errorf("gpusim: partition %d: %w", pi, err)
		}
		it, err := sdf.NewInterp(sub.Sub)
		if err != nil {
			return nil, fmt.Errorf("gpusim: partition %d: %w", pi, err)
		}
		interps[pi], cutOuts[pi] = it, sub.CutOutPorts()
		cutIn := sub.CutInPorts()
		for idx, port := range it.InputPorts() {
			if eid, ok := cutIn[port]; ok {
				srcs[pi] = append(srcs[pi], portSource{hostIdx: -1, edge: eid})
				edgeDest[eid] = [2]int{pi, idx}
				// Delay tokens on cut edges materialize in the consumer.
				if init := g.Edge0(eid).Initial; len(init) > 0 {
					it.Feed(idx, init)
				}
			} else {
				parentPort := sdf.PortRef{Node: k.Members[port.Node], Port: port.Port}
				hi, ok := hostInIdx[parentPort]
				if !ok {
					return nil, fmt.Errorf("gpusim: partition %d input port %v matches no source", pi, port)
				}
				srcs[pi] = append(srcs[pi], portSource{hostIdx: hi})
			}
		}
	}
	for pi, k := range plan.Kernels {
		if !functional {
			break
		}
		for _, port := range interps[pi].OutputPorts() {
			if eid, ok := cutOuts[pi][port]; ok {
				dst, ok := edgeDest[eid]
				if !ok {
					return nil, fmt.Errorf("gpusim: cut edge %d has no consumer wiring", eid)
				}
				sinks[pi] = append(sinks[pi], portSink{hostIdx: -1, consumer: dst[0], feedIdx: dst[1]})
			} else {
				parentPort := sdf.PortRef{Node: k.Members[port.Node], Port: port.Port}
				ho, ok := hostOutIdx[parentPort]
				if !ok {
					return nil, fmt.Errorf("gpusim: partition %d output port %v matches no sink", pi, port)
				}
				sinks[pi] = append(sinks[pi], portSink{hostIdx: ho})
			}
		}
	}

	// Input sufficiency.
	cursors := make([]int64, len(gIn))
	if functional {
		for i, p := range gIn {
			need := g.PortTokens(p, true) * int64(B) * int64(fragments)
			if int64(len(inputs[i])) < need {
				return nil, fmt.Errorf("gpusim: input %d has %d tokens, need %d", i, len(inputs[i]), need)
			}
		}
	}

	// Static per-fragment kernel times.
	kernelUS := make([]float64, P)
	for pi, k := range plan.Kernels {
		kernelUS[pi] = KernelFragmentUS(plan, k, int64(B)*k.Scale)
	}

	outputs := make([][]sdf.Token, len(gOut))

	// --- functional pass: fragment-major, kernels in topo order ---
	for n := 0; functional && n < fragments; n++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gpusim: cancelled at fragment %d: %w", n, err)
		}
		for _, pi := range plan.Order {
			k := plan.Kernels[pi]
			execs := int64(B) * k.Scale
			it := interps[pi]
			for idx, src := range srcs[pi] {
				if src.hostIdx >= 0 {
					per := g.PortTokens(gIn[src.hostIdx], true) * int64(B)
					from := cursors[src.hostIdx]
					it.Feed(idx, inputs[src.hostIdx][from:from+per])
					cursors[src.hostIdx] += per
				}
			}
			if err := it.RunIterations(int(execs)); err != nil {
				return nil, fmt.Errorf("gpusim: partition %d fragment %d: %w", pi, n, err)
			}
			for idx, sink := range sinks[pi] {
				toks := it.Drain(idx)
				if sink.hostIdx >= 0 {
					outputs[sink.hostIdx] = append(outputs[sink.hostIdx], toks...)
				} else {
					interps[sink.consumer].Feed(sink.feedIdx, toks)
				}
			}
		}
	}

	// --- temporal pass: event-driven pipeline simulation ---
	ti := timingInput{
		ctx:       ctx,
		topo:      plan.Machine.Topo,
		fragments: fragments,
		numParts:  P,
		gpuOf:     plan.GPUOf,
		topoIdx:   make([]int, P),
		kernelUS:  kernelUS,
		inLocal:   make([][]int, P),
		inRemote:  make([][]remoteEdge, P),
		hostIn:    make([]int64, P),
		hostOut:   make([]int64, P),
		viaHost:   plan.ViaHost,
	}
	for pos, pi := range plan.Order {
		ti.topoIdx[pi] = pos
	}
	for _, e := range plan.Deps {
		if plan.GPUOf[e.From] == plan.GPUOf[e.To] {
			ti.inLocal[e.To] = append(ti.inLocal[e.To], e.From)
		} else {
			ti.inRemote[e.To] = append(ti.inRemote[e.To], remoteEdge{from: e.From, bytes: e.Bytes * int64(B)})
		}
	}
	for pi := 0; pi < P; pi++ {
		ti.hostIn[pi] = plan.HostInBytes[pi] * int64(B)
		ti.hostOut[pi] = plan.HostOutBytes[pi] * int64(B)
	}
	tout, err := simulateTiming(ti)
	if err != nil {
		return nil, err
	}

	res := &Result{
		MakespanUS:    tout.makespan,
		GPUBusyUS:     tout.gpuBusy,
		LinkBusyUS:    tout.linkBusy,
		KernelUS:      kernelUS,
		FragmentEndUS: tout.fragEnd,
		Outputs:       outputs,
	}
	res.PerFragmentUS = steadyStatePerFragment(res.FragmentEndUS)
	return res, nil
}

// steadyStatePerFragment estimates the pipeline's steady-state fragment
// period: the least-squares slope of completion time over the second half
// of the fragments, which discounts the fill phase and is robust to
// scheduling noise. Use enough fragments (a few times the pipeline depth)
// for a faithful reading.
func steadyStatePerFragment(fragEnd []float64) float64 {
	n := len(fragEnd)
	if n == 1 {
		return fragEnd[0]
	}
	lo := n / 2
	m := n - lo
	if m < 2 {
		return fragEnd[n-1] - fragEnd[n-2]
	}
	var sx, sy, sxx, sxy float64
	for i := lo; i < n; i++ {
		x := float64(i)
		sx += x
		sy += fragEnd[i]
		sxx += x * x
		sxy += x * fragEnd[i]
	}
	den := float64(m)*sxx - sx*sx
	if den == 0 {
		return (fragEnd[n-1] - fragEnd[lo]) / float64(m-1)
	}
	return (float64(m)*sxy - sx*sy) / den
}
