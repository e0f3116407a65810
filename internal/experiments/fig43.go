package experiments

import (
	"fmt"

	"streammap/internal/apps"
	"streammap/internal/core"
	"streammap/internal/gpu"
)

// Fig43Row is one (app, N) comparison against the previous work.
type Fig43Row struct {
	App      string
	N        int
	SOSPOur  [5]float64 // speedup over single-partition mapping, ours, per GPU count
	SOSPPrev [5]float64 // same for the previous work
	SPSGOK   bool       // whether the single-partition baseline was feasible
}

// Fig43 reproduces Figure 4.3: multi-GPU performance as Speedup Over
// Single-Partition mapping (SOSP), ours vs the previous work [7], for the
// five applications the previous work reports. Both schemes share the same
// SPSG baseline (whole graph as one kernel on one GPU), so the SOSP ratio
// equals the direct performance ratio of the two schemes.
func Fig43(cfg Config) (*Table, []Fig43Row, error) {
	type cell struct {
		app apps.App
		n   int
	}
	var cells []cell
	for _, app := range appsRegistry() {
		if len(app.CompareSizes) == 0 {
			continue
		}
		for _, n := range cfg.sizes(app, true) {
			cells = append(cells, cell{app, n})
		}
	}
	rows, err := parMap(cfg, len(cells), func(i int) (Fig43Row, error) {
		app, n := cells[i].app, cells[i].n
		g, err := buildApp(app, n)
		if err != nil {
			return Fig43Row{}, err
		}
		row := Fig43Row{App: app.Name, N: n}

		// SPSG baseline: single partition, single GPU. For sizes whose
		// whole graph exceeds shared memory the baseline is infeasible;
		// those rows report the our/prev ratio only.
		var spsg float64
		if c, err := compileApp(g, 1, core.SinglePart, core.ILPMapper, gpu.M2090()); err == nil {
			if t, err := measure(c, cfg.Fragments); err == nil {
				spsg = t
				row.SPSGOK = true
			}
		}

		for gpus := 1; gpus <= 4; gpus++ {
			co, err := compileApp(g, gpus, core.Alg1, core.ILPMapper, gpu.M2090())
			if err != nil {
				return row, fmt.Errorf("fig4.3 %s N=%d G=%d (ours): %w", app.Name, n, gpus, err)
			}
			to, err := measure(co, cfg.Fragments)
			if err != nil {
				return row, err
			}
			cp, err := compileApp(g, gpus, core.PrevWorkPart, core.PrevWorkMap, gpu.M2090())
			if err != nil {
				return row, fmt.Errorf("fig4.3 %s N=%d G=%d (prev): %w", app.Name, n, gpus, err)
			}
			tp, err := measure(cp, cfg.Fragments)
			if err != nil {
				return row, err
			}
			if row.SPSGOK {
				row.SOSPOur[gpus] = spsg / to
				row.SOSPPrev[gpus] = spsg / tp
			} else {
				// Without a feasible SPSG, normalize by the previous
				// work's 1-GPU time so ratios remain meaningful.
				row.SOSPOur[gpus] = 1 / to
				row.SOSPPrev[gpus] = 1 / tp
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Figure 4.3 — SOSP: ours vs previous work [7] (and SOSP ratio our/prev)",
		Header: []string{"app", "N", "spsg", "our1", "prev1", "our2", "prev2", "our4", "prev4", "ratio1", "ratio2", "ratio3", "ratio4"},
	}
	ratioSum := [5][]float64{}
	for _, r := range rows {
		ratio := [5]float64{}
		for g := 1; g <= 4; g++ {
			ratio[g] = r.SOSPOur[g] / r.SOSPPrev[g]
			ratioSum[g] = append(ratioSum[g], ratio[g])
		}
		spsg := "yes"
		sosp := func(v float64) string {
			if !r.SPSGOK {
				return "-"
			}
			return f2(v)
		}
		if !r.SPSGOK {
			spsg = "no"
		}
		t.Rows = append(t.Rows, []string{
			r.App, fmt.Sprintf("%d", r.N), spsg,
			sosp(r.SOSPOur[1]), sosp(r.SOSPPrev[1]),
			sosp(r.SOSPOur[2]), sosp(r.SOSPPrev[2]),
			sosp(r.SOSPOur[4]), sosp(r.SOSPPrev[4]),
			f2(ratio[1]), f2(ratio[2]), f2(ratio[3]), f2(ratio[4]),
		})
	}
	t.Rows = append(t.Rows, []string{"", "", "", "", "", "", "", "", "", "", "", "", ""})
	t.Rows = append(t.Rows, []string{
		"average", "", "", "", "", "", "", "", "",
		f2(geomean(ratioSum[1])), f2(geomean(ratioSum[2])),
		f2(geomean(ratioSum[3])), f2(geomean(ratioSum[4])),
	})
	t.Notes = append(t.Notes,
		"paper's average SOSP ratios: 1.17 (1 GPU), 1.33 (2), 1.40 (3), 1.47 (4)",
		"ratio > 1 means our mapping outperforms the previous work; compute-bound apps should be well above 1",
	)
	return t, rows, nil
}
