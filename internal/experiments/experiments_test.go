package experiments

import (
	"strings"
	"testing"
)

func TestFig41TinyShape(t *testing.T) {
	tbl, res, err := Fig41(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 30 {
		t.Errorf("only %d scatter points", len(res.Points))
	}
	if res.R2 < 0.9 {
		t.Errorf("R^2 = %.3f, want >= 0.9 (paper: 0.972)", res.R2)
	}
	if res.Slope < 0.7 || res.Slope > 1.4 {
		t.Errorf("slope = %.3f, want near 1", res.Slope)
	}
	if !strings.Contains(tbl.String(), "R^2") {
		t.Errorf("table missing R^2 row")
	}
}

func TestFig42TinyShape(t *testing.T) {
	tbl, rows, err := Fig42(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.SpeedupG[1] != 1 {
			t.Errorf("%s N=%d: 1-GPU speedup %v != 1", r.App, r.N, r.SpeedupG[1])
		}
		for g := 2; g <= 4; g++ {
			if r.SpeedupG[g] < 0.5 || r.SpeedupG[g] > 4.6 {
				t.Errorf("%s N=%d: %d-GPU speedup %v implausible", r.App, r.N, g, r.SpeedupG[g])
			}
		}
		if r.Partitions < 1 {
			t.Errorf("%s N=%d: %d partitions", r.App, r.N, r.Partitions)
		}
	}
	if !strings.Contains(tbl.String(), "avg final") {
		t.Errorf("missing summary row")
	}
}

func TestFig43TinyShape(t *testing.T) {
	_, rows, err := Fig43(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	apps := map[string]bool{}
	for _, r := range rows {
		apps[r.App] = true
		for g := 1; g <= 4; g++ {
			if r.SOSPOur[g] <= 0 || r.SOSPPrev[g] <= 0 {
				t.Errorf("%s N=%d G=%d: non-positive SOSP", r.App, r.N, g)
			}
		}
	}
	// The five comparison apps of the paper.
	for _, want := range []string{"DES", "DCT", "FFT", "MatMul3", "Bitonic"} {
		if !apps[want] {
			t.Errorf("missing comparison app %s", want)
		}
	}
}

func TestFig44Stability(t *testing.T) {
	_, rows, err := Fig44(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Deviation > 0.25 {
			t.Errorf("%s N=%d: SOSP deviation %.1f%% exceeds 25%% (paper bound ~12%%)",
				r.App, r.N, r.Deviation*100)
		}
		if r.RawSpeedupG2 < 1.05 || r.RawSpeedupG2 > 1.45 {
			t.Errorf("%s N=%d: raw G1/G2 speedup %.2f outside the 1.23-1.29 band (±tolerance)",
				r.App, r.N, r.RawSpeedupG2)
		}
	}
}

func TestTable51Speedups(t *testing.T) {
	_, rows, err := Table51(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 1.0 {
			t.Errorf("%s N=%d: elimination slowed the app down (%.2f)", r.App, r.N, r.Speedup)
		}
	}
	// BitonicRec (splitter/joiner heavy) must benefit more than FFT at its
	// largest size.
	var fftBest, recBest float64
	for _, r := range rows {
		if r.App == "FFT" && r.Speedup > fftBest {
			fftBest = r.Speedup
		}
		if r.App == "BitonicRec" && r.Speedup > recBest {
			recBest = r.Speedup
		}
	}
	if recBest <= fftBest {
		t.Errorf("BitonicRec best speedup %.2f should exceed FFT's %.2f", recBest, fftBest)
	}
}

func TestAblationsOrdering(t *testing.T) {
	_, rows, err := Ablations(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CommAware > r.ViaHost*1.001 {
			t.Errorf("%s: via-host (%v) beat peer-to-peer (%v)", r.App, r.ViaHost, r.CommAware)
		}
		if r.CommAware > r.CommBlind*1.05 {
			t.Errorf("%s: comm-blind (%v) clearly beat comm-aware (%v)", r.App, r.CommBlind, r.CommAware)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	s := tbl.String()
	for _, want := range []string{"== t ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestScalingSweepTinyShape(t *testing.T) {
	tbl, rows, err := ScalingSweep(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 sizes x 2 gpu counts)", len(rows))
	}
	for _, r := range rows {
		if r.Nodes < r.Filters/2 {
			t.Errorf("%d filters requested but only %d nodes", r.Filters, r.Nodes)
		}
		if r.Partitions < 1 {
			t.Errorf("%d-filter cell has %d partitions", r.Filters, r.Partitions)
		}
		if r.ExactMS <= 0 {
			t.Errorf("cell (%d, %d) reports non-positive compile latency", r.Filters, r.GPUs)
		}
		if r.PerFragUS <= 0 {
			t.Errorf("cell (%d, %d) reports non-positive throughput", r.Filters, r.GPUs)
		}
	}
	if !strings.Contains(tbl.String(), "exact(ms)") {
		t.Error("table missing exact(ms) column")
	}
}
