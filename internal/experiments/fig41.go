package experiments

import (
	"fmt"
	"math"
	"sort"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/pee"
	"streammap/internal/sdf"
)

// Fig41Point is one scatter point of the estimation-accuracy experiment.
type Fig41Point struct {
	App         string
	N           int
	Partition   string
	EstimatedUS float64
	MeasuredUS  float64
}

// Fig41Result carries the scatter and its fit statistics.
type Fig41Result struct {
	Points    []Fig41Point
	R2        float64
	Slope     float64 // regression through origin: measured ≈ slope*estimated
	MeanAbsPE float64 // mean absolute percentage error
	Outliers  int     // points deviating by more than 25%
}

// Fig41 reproduces Figure 4.1: the performance estimation engine's
// predictions against simulated kernel measurements over all partitions
// selected across the benchmark suite.
func Fig41(cfg Config) (*Table, *Fig41Result, error) {
	type cell struct {
		app apps.App
		n   int
	}
	var cells []cell
	for _, app := range appsRegistry() {
		for _, n := range cfg.sizes(app, false) {
			cells = append(cells, cell{app, n})
		}
	}
	points, err := parMap(len(cells), func(i int) ([]Fig41Point, error) {
		app, n := cells[i].app, cells[i].n
		g, err := buildApp(app, n)
		if err != nil {
			return nil, err
		}
		c, err := compileApp(g, 1, driver.Alg1, driver.ILPMapper, gpu.M2090())
		if err != nil {
			return nil, fmt.Errorf("fig4.1 %s N=%d: %w", app.Name, n, err)
		}
		var pts []Fig41Point
		for _, k := range c.Plan.Kernels {
			meas := gpusim.MeasureKernel(c.Plan, k)
			pts = append(pts, Fig41Point{
				App:         app.Name,
				N:           n,
				Partition:   sdf.FormatMembers(k.Members),
				EstimatedUS: k.TUS,
				MeasuredUS:  meas.PerExecUS,
			})
		}
		return pts, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &Fig41Result{}
	for _, pts := range points {
		res.Points = append(res.Points, pts...)
	}
	var pred, meas []float64
	var sxx, sxy, sumAPE float64
	for _, p := range res.Points {
		pred = append(pred, p.EstimatedUS)
		meas = append(meas, p.MeasuredUS)
		sxx += p.EstimatedUS * p.EstimatedUS
		sxy += p.EstimatedUS * p.MeasuredUS
		ape := math.Abs(p.MeasuredUS-p.EstimatedUS) / p.MeasuredUS
		sumAPE += ape
		if ape > 0.25 {
			res.Outliers++
		}
	}
	res.R2 = pee.RSquared(pred, meas)
	if sxx > 0 {
		res.Slope = sxy / sxx
	}
	if len(res.Points) > 0 {
		res.MeanAbsPE = sumAPE / float64(len(res.Points))
	}

	t := &Table{
		Title:  "Figure 4.1 — accuracy of performance estimation (estimated vs measured kernel time)",
		Header: []string{"metric", "value", "paper"},
		Rows: [][]string{
			{"unique partitions", fmt.Sprintf("%d", len(res.Points)), "~350"},
			{"R^2", fmt.Sprintf("%.3f", res.R2), "0.972"},
			{"regression slope", fmt.Sprintf("%.3f", res.Slope), "0.976"},
			{"mean abs % error", fmt.Sprintf("%.1f%%", res.MeanAbsPE*100), "(insignificant in most cases)"},
			{"outliers (>25%)", fmt.Sprintf("%d (%.1f%%)", res.Outliers, 100*float64(res.Outliers)/float64(max1(len(res.Points)))), "infrequent, above the line"},
		},
		Notes: []string{
			"measured = simulated kernel with warp quantization, scheduling jitter and SM bank conflicts",
			"decile summary of the scatter follows",
		},
	}

	// Compact scatter summary: deciles of estimated vs measured.
	pts := append([]Fig41Point(nil), res.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].EstimatedUS < pts[j].EstimatedUS })
	dec := &Table{
		Title:  "Figure 4.1 scatter (decile medians, µs)",
		Header: []string{"decile", "estimated", "measured"},
	}
	for d := 0; d < 10 && len(pts) >= 10; d++ {
		seg := pts[d*len(pts)/10 : (d+1)*len(pts)/10]
		mid := seg[len(seg)/2]
		dec.Rows = append(dec.Rows, []string{
			fmt.Sprintf("%d", d+1), f2(mid.EstimatedUS), f2(mid.MeasuredUS),
		})
	}
	t.Rows = append(t.Rows, []string{"", "", ""})
	for _, r := range dec.Rows {
		t.Rows = append(t.Rows, []string{"decile " + r[0] + " est/meas", r[1] + " / " + r[2], ""})
	}
	return t, res, nil
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}
