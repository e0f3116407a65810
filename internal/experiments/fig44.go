package experiments

import (
	"fmt"
	"math"

	"streammap/internal/apps"
	"streammap/internal/core"
	"streammap/internal/gpu"
)

// Fig44Row is one app's SOSP stability measurement across the two GPUs.
type Fig44Row struct {
	App          string
	N            int
	SOSPG1       float64 // C2070
	SOSPG2       float64 // M2090
	Deviation    float64 // |SOSP_G2/SOSP_G1 - 1|
	RawSpeedupG2 float64 // SPSG time G1 / G2 (the 23-29% hardware scaling)
}

// Fig44 reproduces §4.0.5 / Figure 4.4: the validity of the SOSP metric.
// The four cases are SPSG and MPMG code on G1 (C2070) and G2 (M2090); since
// G2 is a scaled-up G1, the SOSP ratio measured on either GPU should agree
// within roughly 12% — which is what makes cross-hardware SOSP comparisons
// in Figure 4.3 meaningful.
func Fig44(cfg Config) (*Table, []Fig44Row, error) {
	// Sizes chosen so the SPSG kernel dominates PCIe overheads (the paper's
	// SPSG measurements are kernel-dominated too).
	cases := []struct {
		name string
		n    int
	}{
		{"DES", 12}, {"FFT", 512}, {"DCT", 14}, {"Bitonic", 64},
	}
	devices := []gpu.Device{gpu.C2070(), gpu.M2090()}
	type cellResult struct {
		row      Fig44Row
		feasible bool
	}
	cellRows, err := parMap(cfg, len(cases), func(i int) (cellResult, error) {
		cs := cases[i]
		app, ok := apps.ByName(cs.name)
		if !ok {
			return cellResult{}, fmt.Errorf("fig4.4: unknown app %s", cs.name)
		}
		g, err := buildApp(app, cs.n)
		if err != nil {
			return cellResult{}, err
		}
		var sosp [2]float64
		var spsgT [2]float64
		for di, dev := range devices {
			sc, err := core.Compile(g, optionsFor(dev, 1, core.SinglePart))
			if err != nil {
				return cellResult{}, nil // SPSG infeasible: skip the row
			}
			ts, err := measure(sc, cfg.Fragments)
			if err != nil {
				return cellResult{}, err
			}
			mc, err := core.Compile(g, optionsFor(dev, 4, core.Alg1))
			if err != nil {
				return cellResult{}, err
			}
			tm, err := measure(mc, cfg.Fragments)
			if err != nil {
				return cellResult{}, err
			}
			sosp[di] = ts / tm
			spsgT[di] = ts
		}
		return cellResult{feasible: true, row: Fig44Row{
			App:          cs.name,
			N:            cs.n,
			SOSPG1:       sosp[0],
			SOSPG2:       sosp[1],
			Deviation:    math.Abs(sosp[1]/sosp[0] - 1),
			RawSpeedupG2: spsgT[0] / spsgT[1],
		}}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig44Row
	for _, cr := range cellRows {
		if cr.feasible {
			rows = append(rows, cr.row)
		}
	}

	t := &Table{
		Title:  "Figure 4.4 / §4.0.5 — SOSP metric validity across C2070 (G1) and M2090 (G2)",
		Header: []string{"app", "N", "SOSP@G1", "SOSP@G2", "deviation", "G1/G2 raw speedup"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, fmt.Sprintf("%d", r.N),
			f2(r.SOSPG1), f2(r.SOSPG2),
			fmt.Sprintf("%.1f%%", r.Deviation*100),
			f2(r.RawSpeedupG2),
		})
	}
	t.Notes = append(t.Notes,
		"paper bound: SOSP deviation across the two GPUs within ~12%",
		"raw G1/G2 scaling expected between 1.23 (memory-bound) and 1.29 (compute-bound)",
	)
	return t, rows, nil
}

func optionsFor(dev gpu.Device, gpus int, part core.PartitionerKind) core.Options {
	return core.Options{
		Device:      dev,
		Topo:        topologyFor(gpus),
		Partitioner: part,
		Mapper:      core.ILPMapper,
		Workers:     1, // cell-granular parallelism; see compileApp
	}
}
