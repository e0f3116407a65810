package gpu

import "testing"

func TestDeviceScalingMatchesPaper(t *testing.T) {
	g1, g2 := C2070(), M2090()
	// §4.0.5: M2090 has ~29% more compute throughput and ~23% more memory
	// bandwidth than C2070.
	// Peak compute rate is SMs x cores x clock.
	peak := func(d Device) float64 { return float64(d.NumSMs) * float64(d.CoresPerSM) * d.CoreClockMHz }
	comp := peak(g2) / peak(g1)
	if comp < 1.28 || comp > 1.31 {
		t.Errorf("compute throughput ratio = %.3f, want ~1.29", comp)
	}
	bw := g2.MemBandwidthGBs / g1.MemBandwidthGBs
	if bw < 1.22 || bw > 1.24 {
		t.Errorf("bandwidth ratio = %.3f, want ~1.23", bw)
	}
	// Same shared-memory size and compute capability (the paper's
	// requirement for reusing partitioning results).
	if g1.SharedMemPerSM != g2.SharedMemPerSM {
		t.Errorf("SM sizes differ: %d vs %d", g1.SharedMemPerSM, g2.SharedMemPerSM)
	}
	// Wall-clock memory cost per byte must track bandwidth, not clock:
	// (GMCycles/clock) ratio == bandwidth ratio.
	memCost1 := g1.GMCyclesPerTokenPerF / g1.CoreClockMHz
	memCost2 := g2.GMCyclesPerTokenPerF / g2.CoreClockMHz
	ratio := memCost1 / memCost2
	if ratio < 1.22 || ratio > 1.24 {
		t.Errorf("per-byte memory time ratio = %.3f, want ~1.23", ratio)
	}
}

func TestPaperRegressionConstants(t *testing.T) {
	d := M2090()
	if c1 := d.GMCyclesPerTokenPerF / 4; c1 != 38.4 {
		t.Errorf("C1 = %v, want 38.4", c1)
	}
	if c2 := d.SwapCyclesPerToken / 4; c2 != 11.2 {
		t.Errorf("C2 = %v, want 11.2", c2)
	}
}

func TestCyclesToUS(t *testing.T) {
	d := M2090()
	if us := d.CyclesToUS(1300); us != 1 {
		t.Errorf("1300 cycles at 1300MHz = %v us, want 1", us)
	}
}

func TestValidate(t *testing.T) {
	d := M2090()
	if err := d.Validate(); err != nil {
		t.Errorf("M2090 invalid: %v", err)
	}
	bad := d
	bad.NumSMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SMs should be invalid")
	}
	bad = d
	bad.MaxThreadsPerBlock = 8
	if err := bad.Validate(); err == nil {
		t.Error("threads < warp should be invalid")
	}
	bad = d
	bad.MemBandwidthGBs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth should be invalid")
	}
}

func TestString(t *testing.T) {
	if s := M2090().String(); s == "" {
		t.Error("empty String()")
	}
}
