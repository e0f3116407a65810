// Package gpusim is the discrete-event multi-GPU simulator that stands in
// for the paper's 4×M2090 workstation. It plays two roles:
//
//   - Kernel-level timing (this file): "measures" the execution time of a
//     generated kernel, charging the same micro-architectural effects the
//     paper's performance model abstracts away — warp quantization of the
//     compute threads, scheduling jitter, and occasional shared-memory bank
//     conflicts between compute and data-transfer warps. The deviations are
//     deterministic (hashed from the kernel identity) so experiments are
//     reproducible, and they reproduce the Figure 4.1 situation: predictions
//     correlate strongly with measurements, with rare upward outliers.
//
//   - Pipelined multi-GPU execution (exec.go): fragments flow through the
//     mapped partitions with per-link PCIe contention, overlapping kernel
//     execution and transfers exactly as in Figure 3.5, while the filters'
//     real work functions produce real output data for end-to-end
//     verification.
//
// The package deliberately has no reference into the compiler's internals:
// a Plan is built from plain kernel descriptions (member list, granularity
// scale, selected parameters, I/O bytes) over the stream graph, plus the
// profile annotation, not from the partitioner's or the estimation engine's
// live structures. That is what lets a serialized compile artifact (package
// artifact) execute here without recompiling. Timing reads a kernel's
// members against the plan's graph; only the functional pass extracts each
// kernel into a standalone graph, once per run, to wire its interpreter.
package gpusim

import (
	"hash/fnv"
	"math"

	"streammap/internal/sdf"
)

// KernelParams are the kernel launch parameters the estimation engine
// selected: S compute threads per execution, W concurrent executions per SM,
// F data-transfer threads.
type KernelParams struct {
	S int
	W int
	F int
}

// Kernel is one partition lowered to an executable kernel description —
// everything the simulator needs, decoupled from the compiler structures
// that produced it.
type Kernel struct {
	// Members are the kernel's parent-graph node ids, ascending.
	Members []sdf.NodeID
	// Scale is the gcd of the members' parent repetition counts: one
	// kernel execution is a parent iteration's work divided by Scale.
	Scale int64
	// Params are the selected launch parameters.
	Params KernelParams
	// SMBytes is the shared-memory footprint of one execution.
	SMBytes int64
	// IOBytes is the kernel's I/O traffic per execution (the model's D).
	IOBytes int64
	// TUS is the estimated per-execution time, carried for reports.
	TUS float64
	// ComputeBound records the estimator's compute/IO classification.
	ComputeBound bool
}

// KernelTiming is the simulated "profiler report" for one kernel.
type KernelTiming struct {
	TcompUS      float64 // compute-warp time per wave
	TdtUS        float64 // data-transfer-warp time per wave
	TdbUS        float64 // buffer-swap time per wave
	TexecUS      float64 // max(Tcomp,Tdt)+Tdb: one wave of W executions
	PerExecUS    float64 // TexecUS / W: comparable to pee.Estimate.TUS
	BankConflict bool
}

// hashUnit returns deterministic pseudo-uniform values in [0,1) derived from
// the kernel identity; stream distinguishes independent draws.
func hashUnit(name string, stream uint64) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(stream >> (8 * i))
	}
	_, _ = h.Write(b[:])
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// MeasureKernel simulates one wave of one of the plan's kernels on the
// plan's device: the ground truth against which the estimation engine is
// validated (Figure 4.1). The kernel's identity, which seeds its jitter, is
// the name sdf.Extract gives it: the graph's name followed by its members.
func MeasureKernel(plan *Plan, k *Kernel) KernelTiming {
	p, d, g := k.Params, plan.Machine.Device, plan.Graph
	name := g.Name + sdf.FormatMembers(k.Members)

	// Compute side: firings of each filter spread over min(f_i, S) threads,
	// whole warps executing in SIMT lockstep => ceil instead of the model's
	// smooth division, plus a small scheduling jitter.
	var tcomp float64
	for _, m := range k.Members {
		f := g.Rep(m) / k.Scale
		sUsed := int64(p.S)
		if f < sUsed {
			sUsed = f
		}
		rounds := (f + sUsed - 1) / sUsed
		tcomp += float64(rounds) * plan.PerFiringCycles[m]
	}
	tcomp *= 1 + 0.04*hashUnit(name, 1)

	// Data-transfer side: W executions' worth of I/O moved by F threads.
	D := float64(k.IOBytes) * float64(p.W)
	tokens := D / 4
	tdt := d.GMCyclesPerTokenPerF * tokens / float64(p.F)
	tdt *= 1 + 0.06*hashUnit(name, 2)

	// Shared-memory bank conflicts between compute and DT warps hit a small
	// fraction of kernels hard — the paper's explanation for its outliers.
	conflict := false
	if tcomp > 0 && tdt > 0 && hashUnit(name, 3) < 0.08 {
		conflict = true
		tdt *= 1.3 + 0.5*hashUnit(name, 4)
	}

	tdb := d.SwapCyclesPerToken * tokens / float64(p.F+p.W*p.S)
	texec := math.Max(tcomp, tdt) + tdb

	return KernelTiming{
		TcompUS:      d.CyclesToUS(tcomp),
		TdtUS:        d.CyclesToUS(tdt),
		TdbUS:        d.CyclesToUS(tdb),
		TexecUS:      d.CyclesToUS(texec),
		PerExecUS:    d.CyclesToUS(texec) / float64(p.W),
		BankConflict: conflict,
	}
}

// KernelFragmentUS returns the simulated wall time for one invocation of
// one of the plan's kernels covering `execs` kernel executions: blocks of W
// executions spread over the device's SMs in waves.
func KernelFragmentUS(plan *Plan, k *Kernel, execs int64) float64 {
	if execs <= 0 {
		return 0
	}
	d := plan.Machine.Device
	t := MeasureKernel(plan, k)
	w := int64(k.Params.W)
	blocks := (execs + w - 1) / w
	waves := (blocks + int64(d.NumSMs) - 1) / int64(d.NumSMs)
	return d.KernelLaunchUS + float64(waves)*t.TexecUS
}
