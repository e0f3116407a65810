package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// scalingExactCap is the largest filter count at which the exact Algorithm 1
// leg still runs: beyond it Try-Merge's quadratic candidate scan dominates
// the sweep, and the multilevel path is the only column.
const scalingExactCap = 2000

// ScalingRow is one cell of the synthetic scaling sweep.
type ScalingRow struct {
	Filters    int // requested size
	Nodes      int // actual flattened node count
	GPUs       int
	Partitions int     // exact path (0 when the exact leg is skipped)
	ExactMS    float64 // exact compile wall clock
	TmaxUS     float64 // mapping objective
	PerFragUS  float64 // simulated steady-state time per fragment

	MLParts     int     // multilevel path partition count
	MLMS        float64 // multilevel compile wall clock
	SteadyMS    float64 // one solve of the graph's balance equations
	MLAllocMB   float64 // bytes allocated during the multilevel compile
	MLPerFragUS float64 // simulated throughput of the multilevel plan
	Ratio       float64 // MLPerFragUS / PerFragUS (0 when exact skipped)
}

// ScalingSweep compiles a family of generated stream graphs of growing size
// onto machines of growing GPU count and reports compile latency (exact
// vs. multilevel) and simulated throughput. Graphs come from the synth generator under fixed seeds;
// topologies are the paper's paired PCIe trees so the GPU-count axis varies
// only in width. Cells run serially — unlike the paper-figure experiments —
// because the latencies being measured would be distorted by co-running
// cells.
//
// Up to scalingExactCap filters each cell also compiles on the exact path,
// and the multilevel plan's simulated throughput is reported as a ratio
// against the exact plan's. Beyond the cap only the multilevel column runs —
// that is the regime the multilevel path exists for — up to cfg.ScaleMax
// filters (default 1e5; pass -scale-max 1000000 for the million-filter
// cell).
func ScalingSweep(cfg Config) (*Table, []ScalingRow, error) {
	sizes := []int{16, 48, 96, 192, 384}
	gpus := []int{1, 2, 4, 8}
	huge := []int{1000, 10000, 100000, 1000000}
	if cfg.Tiny {
		sizes = []int{12, 32}
		gpus = []int{1, 4}
		huge = nil
	}
	scaleMax := cfg.ScaleMax
	if scaleMax <= 0 {
		scaleMax = 100000
	}

	type cell struct{ filters, gpus int }
	var cells []cell
	for _, n := range sizes {
		for _, g := range gpus {
			cells = append(cells, cell{n, g})
		}
	}
	// The large-graph era: one machine width (the paper's 4-GPU tree), the
	// size axis doing the work.
	for _, n := range huge {
		if n <= scaleMax {
			cells = append(cells, cell{n, 4})
		}
	}

	var rows []ScalingRow
	for _, c := range cells {
		row, err := scalingCell(cfg, c.filters, c.gpus)
		if err != nil {
			return nil, nil, fmt.Errorf("scaling cell (%d filters, %d gpus): %w", c.filters, c.gpus, err)
		}
		rows = append(rows, row)
	}

	tbl := &Table{
		Title:  "Scaling — synthetic graphs: compile latency and throughput vs. size and GPU count",
		Header: []string{"filters", "nodes", "gpus", "parts", "exact(ms)", "us/frag", "ml-parts", "ml(ms)", "steady(ms)", "ml-alloc(MB)", "ml-us/frag", "ratio"},
		Notes: []string{
			"graphs: synth.BuildGraph (seeded, skewed work); topology: PairedTree",
			fmt.Sprintf("the exact leg (Algorithm 1, multilevel switch off) runs up to %d filters", scalingExactCap),
			"ml columns: forced multilevel coarsen->partition->refine path; ratio = ml-us/frag / us/frag",
			"steady(ms): one solve of the graph's balance equations, the part of building or importing a graph that grows with it",
		},
	}
	dash := func(v float64, ok bool) string {
		if !ok {
			return "-"
		}
		return f2(v)
	}
	for _, r := range rows {
		exact := r.PerFragUS > 0
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(r.Filters), fmt.Sprint(r.Nodes), fmt.Sprint(r.GPUs),
			map[bool]string{true: fmt.Sprint(r.Partitions), false: "-"}[exact],
			dash(r.ExactMS, exact), dash(r.PerFragUS, exact),
			fmt.Sprint(r.MLParts), f2(r.MLMS), f2(r.SteadyMS), f1(r.MLAllocMB), f2(r.MLPerFragUS),
			dash(r.Ratio, exact),
		})
	}
	return tbl, rows, nil
}

func scalingCell(cfg Config, filters, gpus int) (ScalingRow, error) {
	gp := synth.GraphParams{
		Seed:     uint64(filters)<<16 | uint64(gpus),
		Filters:  filters,
		MaxRate:  8,
		MaxOps:   512,
		SkewWork: true,
	}
	opts := driver.Options{
		Device: gpu.M2090(),
		Topo:   topology.PairedTree(gpus),
		// The differential corpus's mapping options.
		MapOptions: mapping.Options{ILPMaxParts: 4},
	}
	row := ScalingRow{Filters: filters, GPUs: gpus}

	if filters <= scalingExactCap {
		exactOpts := opts
		exactOpts.MultilevelThreshold = driver.MultilevelOff
		g, err := synth.BuildGraph(gp)
		if err != nil {
			return ScalingRow{}, err
		}
		t0 := time.Now()
		exact, err := driver.Compile(context.Background(), g, exactOpts)
		if err != nil {
			return ScalingRow{}, err
		}
		row.ExactMS = float64(time.Since(t0).Microseconds()) / 1e3
		res, err := gpusim.RunTiming(exact.Plan, cfg.Fragments)
		if err != nil {
			return ScalingRow{}, err
		}
		row.Partitions = len(exact.Parts.Parts)
		row.TmaxUS = exact.Assign.Objective
		row.PerFragUS = res.PerFragmentUS
	}

	// Multilevel leg: always forced, so the column exists at every size and
	// the small cells double as quality references for the ratio.
	gML, err := synth.BuildGraph(gp)
	if err != nil {
		return ScalingRow{}, err
	}
	// BuildGraph has solved the graph; solving it again under the timer
	// gives the same vector and measures the solver alone. Both timers
	// start on a collected heap.
	runtime.GC()
	t0 := time.Now()
	if err := gML.Steady(); err != nil {
		return ScalingRow{}, err
	}
	row.SteadyMS = float64(time.Since(t0).Microseconds()) / 1e3
	mlOpts := opts
	mlOpts.Partitioner = driver.MultilevelPart
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	ml, err := driver.Compile(context.Background(), gML, mlOpts)
	if err != nil {
		return ScalingRow{}, fmt.Errorf("multilevel: %w", err)
	}
	row.MLMS = float64(time.Since(t0).Microseconds()) / 1e3
	runtime.ReadMemStats(&m1)
	row.MLAllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	mlRes, err := gpusim.RunTiming(ml.Plan, cfg.Fragments)
	if err != nil {
		return ScalingRow{}, err
	}
	row.Nodes = gML.NumNodes()
	row.MLParts = len(ml.Parts.Parts)
	row.MLPerFragUS = mlRes.PerFragmentUS
	if row.PerFragUS > 0 {
		row.Ratio = row.MLPerFragUS / row.PerFragUS
	}
	return row, nil
}
