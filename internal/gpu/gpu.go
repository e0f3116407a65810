// Package gpu models the GPU devices and multi-GPU machines the mapping flow
// targets. Devices are described by the handful of architectural parameters
// the paper's performance model and the simulator consume: SM count, shared
// memory size, thread caps, clocks and memory bandwidth.
//
// Two concrete device models are provided, mirroring §4.0.5 of the paper:
// M2090 (the paper's evaluation GPU, "G2") and C2070 (the previous work's
// GPU, "G1"). G2 is a scaled-up G1 with ~29% more compute throughput and
// ~23% more memory bandwidth — exactly the deltas the SOSP-metric validity
// argument relies on.
package gpu

import "fmt"

// Device describes one GPU model.
type Device struct {
	Name               string
	NumSMs             int     // streaming multiprocessors
	CoresPerSM         int     // streaming processors per SM
	WarpSize           int     // threads per warp
	MaxThreadsPerBlock int     // CUDA cap on threads per block
	SharedMemPerSM     int64   // shared memory (SM) bytes per multiprocessor
	CoreClockMHz       float64 // shader clock
	MemBandwidthGBs    float64 // global memory bandwidth

	// Timing-model constants (cycles). These play the role of the
	// microarchitectural facts the paper obtains by profiling on real
	// hardware; the simulator charges time with them and the Performance
	// Estimation Engine recovers its C1/C2 by regression against the
	// simulator (see pee.Calibrate).
	CyclesPerOp          float64 // compute cycles per abstract filter op
	FiringOverhead       float64 // fixed cycles per filter firing
	SMCyclesPerToken     float64 // shared-memory access cycles per token moved
	GMCyclesPerTokenPerF float64 // global-memory cycles per token per DT thread (pre-division)
	SwapCyclesPerToken   float64 // buffer-swap cycles per token per participating thread
	KernelLaunchUS       float64 // fixed kernel launch cost, microseconds
}

// M2090 is the evaluation GPU of the paper (Fermi GF110, "G2").
func M2090() Device {
	return Device{
		Name:               "M2090",
		NumSMs:             16,
		CoresPerSM:         32,
		WarpSize:           32,
		MaxThreadsPerBlock: 1024,
		SharedMemPerSM:     48 * 1024,
		CoreClockMHz:       1300,
		MemBandwidthGBs:    177,
		CyclesPerOp:        1.0,
		FiringOverhead:     16,
		SMCyclesPerToken:   2.0,
		// 153.6 cycles/token/thread over 4-byte tokens = 38.4 cycles/byte,
		// the paper's C1; likewise 44.8/4 = 11.2 = C2. The estimator's
		// regression recovers these from simulated kernels.
		GMCyclesPerTokenPerF: 153.6,
		SwapCyclesPerToken:   44.8,
		KernelLaunchUS:       5,
	}
}

// C2070 is the previous work's GPU (Fermi GF100, "G1"): same architecture
// and SM size as M2090, lower clocks and bandwidth. The global-memory cost
// constant is rescaled so that memory-bound time tracks the 144 vs 177 GB/s
// bandwidth gap rather than the core clock (its wall-clock cost per byte is
// 1.229x M2090's), matching the scaling argument of §4.0.5.
func C2070() Device {
	d := M2090()
	d.Name = "C2070"
	d.NumSMs = 14
	d.CoreClockMHz = 1150
	d.MemBandwidthGBs = 144
	m := M2090()
	d.GMCyclesPerTokenPerF = m.GMCyclesPerTokenPerF *
		(d.CoreClockMHz / m.CoreClockMHz) * (m.MemBandwidthGBs / d.MemBandwidthGBs)
	return d
}

// CyclesToUS converts core cycles to microseconds on this device.
func (d Device) CyclesToUS(cycles float64) float64 { return cycles / d.CoreClockMHz }

// String implements fmt.Stringer.
func (d Device) String() string {
	return fmt.Sprintf("%s(%dxSM @%.0fMHz, %dKB shmem, %.0fGB/s)",
		d.Name, d.NumSMs, d.CoreClockMHz, d.SharedMemPerSM/1024, d.MemBandwidthGBs)
}

// Validate reports nonsensical configurations.
func (d Device) Validate() error {
	switch {
	case d.NumSMs <= 0, d.CoresPerSM <= 0, d.WarpSize <= 0:
		return fmt.Errorf("gpu: %s: non-positive core geometry", d.Name)
	case d.MaxThreadsPerBlock < d.WarpSize:
		return fmt.Errorf("gpu: %s: MaxThreadsPerBlock %d < WarpSize %d", d.Name, d.MaxThreadsPerBlock, d.WarpSize)
	case d.SharedMemPerSM <= 0:
		return fmt.Errorf("gpu: %s: non-positive shared memory", d.Name)
	case d.CoreClockMHz <= 0 || d.MemBandwidthGBs <= 0:
		return fmt.Errorf("gpu: %s: non-positive clock or bandwidth", d.Name)
	}
	return nil
}
