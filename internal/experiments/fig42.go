package experiments

import (
	"fmt"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/sdf"
)

// Independent (app, N) cells of every figure run concurrently via parMap;
// each cell compiles its own graphs, so cells share nothing but the
// deterministic compile pipeline.

func appsRegistry() []apps.App { return apps.Registry }

func buildApp(a apps.App, n int) (*sdf.Graph, error) { return apps.BuildGraph(a, n) }

// Fig42Row is one (app, N) measurement of the scalability experiment.
type Fig42Row struct {
	App        string
	N          int
	Partitions int
	PrevParts  int
	SpeedupG   [5]float64 // index by GPU count; [1] == 1.0
}

// Fig42 reproduces Figure 4.2: the scalability of the mapping technique.
// For every app and size, one set of partitions (Algorithm 1) is mapped to
// 1-4 GPUs; speedup is the steady-state per-fragment time ratio over the
// 1-GPU multi-partition mapping. The partition counts shown on the paper's
// x-axes are reported alongside the previous work's counts (the kernel
// count ratio discussion of §4.0.3).
func Fig42(cfg Config) (*Table, []Fig42Row, error) {
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
	rows, err := parMap(len(cells), func(i int) (Fig42Row, error) {
		app, n := cells[i].app, cells[i].n
		g, err := buildApp(app, n)
		if err != nil {
			return Fig42Row{}, err
		}
		row := Fig42Row{App: app.Name, N: n}
		var base float64
		for gpus := 1; gpus <= 4; gpus++ {
			c, err := compileApp(g, gpus, driver.Alg1, driver.ILPMapper, gpu.M2090())
			if err != nil {
				return row, fmt.Errorf("fig4.2 %s N=%d G=%d: %w", app.Name, n, gpus, err)
			}
			row.Partitions = len(c.Parts.Parts)
			t, err := measure(c, cfg.Fragments)
			if err != nil {
				return row, err
			}
			if gpus == 1 {
				base = t
			}
			row.SpeedupG[gpus] = base / t
		}
		if pc, err := compileApp(g, 1, driver.PrevWorkPart, driver.PrevWorkMap, gpu.M2090()); err == nil {
			row.PrevParts = len(pc.Parts.Parts)
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Figure 4.2 — scalability (speedup over 1-GPU multi-partition mapping)",
		Header: []string{"app", "N", "#parts", "#prev", "1-GPU", "2-GPU", "3-GPU", "4-GPU"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.Partitions), fmt.Sprintf("%d", r.PrevParts),
			f2(r.SpeedupG[1]), f2(r.SpeedupG[2]), f2(r.SpeedupG[3]), f2(r.SpeedupG[4]),
		})
	}

	// Summary: average final speedups (largest N per app) — the paper's
	// 1.8x / 2.6x / 3.2x claim — and the geometric-mean kernel count ratio.
	final := map[string]Fig42Row{}
	for _, r := range rows {
		if prev, ok := final[r.App]; !ok || r.N > prev.N {
			final[r.App] = r
		}
	}
	var s2, s3, s4, ratios []float64
	for _, r := range final {
		s2 = append(s2, r.SpeedupG[2])
		s3 = append(s3, r.SpeedupG[3])
		s4 = append(s4, r.SpeedupG[4])
		if r.PrevParts > 0 {
			ratios = append(ratios, float64(r.Partitions)/float64(r.PrevParts))
		}
	}
	t.Rows = append(t.Rows, []string{"", "", "", "", "", "", "", ""})
	t.Rows = append(t.Rows, []string{
		"avg final", "", "", "", "1.00",
		f2(geomean(s2)), f2(geomean(s3)), f2(geomean(s4)),
	})
	t.Notes = append(t.Notes,
		"paper's average final speedups: 1.8x (2 GPUs), 2.6x (3 GPUs), 3.2x (4 GPUs)",
		fmt.Sprintf("geomean kernel count ratio ours/prev (largest N): %.1f (paper: ~3.7)", geomean(ratios)),
	)
	return t, rows, nil
}
