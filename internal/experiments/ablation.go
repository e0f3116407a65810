package experiments

import (
	"fmt"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/pdg"
)

// AblationRow compares mapping strategies on one app instance.
type AblationRow struct {
	App        string
	N          int
	GPUs       int
	CommAware  float64 // our ILP/local-search mapping, peer-to-peer (µs/fragment)
	CommBlind  float64 // workload-only LPT mapping, peer-to-peer
	ViaHost    float64 // our mapping executed with host-staged transfers
	GreedyOnly float64 // greedy seed without local search / ILP
}

// Ablations quantifies the design choices DESIGN.md calls out: explicit
// communication modeling in the objective, peer-to-peer vs host-staged
// transfers, and search effort beyond the greedy seed. All variants share
// the same Algorithm 1 partitions.
func Ablations(cfg Config) (*Table, []AblationRow, error) {
	cases := []struct {
		app  string
		n    int
		gpus int
	}{
		{"DES", 12, 4}, {"FMRadio", 12, 4}, {"DCT", 14, 4}, {"BitonicRec", 32, 4},
	}
	rows, err := parMap(len(cases), func(i int) (AblationRow, error) {
		cs := cases[i]
		app, ok := apps.ByName(cs.app)
		if !ok {
			return AblationRow{}, fmt.Errorf("ablation: unknown app %s", cs.app)
		}
		g, err := buildApp(app, cs.n)
		if err != nil {
			return AblationRow{}, err
		}
		c, err := compileApp(g, cs.gpus, driver.Alg1, driver.ILPMapper, gpu.M2090())
		if err != nil {
			return AblationRow{}, err
		}
		row := AblationRow{App: cs.app, N: cs.n, GPUs: cs.gpus}

		runWith := func(gpuOf []int, viaHost bool) (float64, error) {
			plan := *c.Plan
			plan.GPUOf = gpuOf
			plan.ViaHost = viaHost
			res, err := gpusim.RunTiming(&plan, cfg.Fragments)
			if err != nil {
				return 0, err
			}
			return res.PerFragmentUS, nil
		}

		if row.CommAware, err = runWith(c.Assign.GPUOf, false); err != nil {
			return row, err
		}
		blind := commBlindLPT(c.PDG, c.Problem)
		if row.CommBlind, err = runWith(blind, false); err != nil {
			return row, err
		}
		if row.ViaHost, err = runWith(c.Assign.GPUOf, true); err != nil {
			return row, err
		}
		greedy := mapping.Greedy(c.Problem)
		if row.GreedyOnly, err = runWith(greedy.GPUOf, false); err != nil {
			return row, err
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		Title:  "Ablation — mapping design choices (µs/fragment, lower is better)",
		Header: []string{"app", "N", "GPUs", "comm-aware", "comm-blind", "via-host", "greedy-seed"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, fmt.Sprintf("%d", r.N), fmt.Sprintf("%d", r.GPUs),
			f1(r.CommAware), f1(r.CommBlind), f1(r.ViaHost), f1(r.GreedyOnly),
		})
	}
	t.Notes = append(t.Notes,
		"comm-blind = balance workload only (the previous work's mapping policy) on our partitions",
		"via-host = our assignment but every inter-GPU transfer staged through the host",
	)
	return t, rows, nil
}

// commBlindLPT balances T_i across GPUs ignoring all communication. The
// exchange sort is kept verbatim from the seed implementation: its tie
// ordering differs from mapping.PlaceLongestFirst's stable sort, and the
// ablation's reference numbers depend on it.
func commBlindLPT(dg *pdg.PDG, prob *mapping.Problem) []int {
	n := dg.NumParts()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if prob.PartTimeUS(order[j]) > prob.PartTimeUS(order[i]) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	g := prob.Topo.NumGPUs()
	load := make([]float64, g)
	out := make([]int, n)
	for _, pi := range order {
		best := 0
		for k := 1; k < g; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		out[pi] = best
		load[best] += prob.PartTimeUS(pi)
	}
	return out
}
