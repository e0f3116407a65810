package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"streammap"
	"streammap/internal/apps"
	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/gpusim"
	"streammap/internal/mapping"
	"streammap/internal/partition"
	"streammap/internal/pdg"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// cell is one graph a compile workload compiles per pass.
type cell struct {
	name string
	// build makes the graph. compile-apps flattens each app anew every
	// pass, inside the timed part, as a library user would; compile-large
	// generates its graph once, during set-up.
	build func() (*sdf.Graph, error)
	opts  streammap.Options
	remap bool // also time a degrade + warm remap of the result
	// small builds the same program at a size the host interpreter runs in
	// milliseconds, for the functional check.
	small func() (*sdf.Graph, error)
}

// compileSpec is one compile workload.
type compileSpec struct {
	name      string
	why       string                 // one line for BENCHMARK.json
	cells     func() ([]cell, error) // the set-up
	planBound float64                // share by which plan_us_per_frag may exceed the golden value
}

// The eight paper apps at the largest sizes at which every exact mapping
// solve closes far inside its budget (FFT:1024 and MatMul3:7 run into the
// 10 s default and would measure the clock).
var paperCells = []struct {
	app      string
	n, small int
}{
	{"DES", 32, 4}, {"FMRadio", 32, 4}, {"FFT", 512, 8}, {"DCT", 30, 2},
	{"MatMul2", 8, 2}, {"MatMul3", 6, 1}, {"BitonicRec", 64, 4}, {"Bitonic", 64, 4},
}

var compileSpecs = []compileSpec{
	{name: "compile-apps", planBound: 1e-9,
		why: "Library path, child process: the eight paper apps at their largest ILP-closing sizes on a 4-GPU tree: exact Try-Merge partitioning, ILP and local search; plan quality is held to golden values.",
		cells: func() ([]cell, error) {
			var out []cell
			for _, pc := range paperCells {
				app, ok := apps.ByName(pc.app)
				if !ok {
					return nil, fmt.Errorf("no app %q", pc.app)
				}
				out = append(out, cell{
					name:  fmt.Sprintf("%s-%d", pc.app, pc.n),
					build: func() (*sdf.Graph, error) { return apps.BuildGraph(app, pc.n) },
					small: func() (*sdf.Graph, error) { return apps.BuildGraph(app, pc.small) },
					remap: true,
					opts: streammap.Options{
						Device: streammap.M2090(), Topo: streammap.PairedTree(4),
						MapOptions: mapping.Options{TimeBudget: 60 * time.Second},
					},
				})
			}
			return out, nil
		}},
	// The BenchmarkMultilevelCompile graph under default options: at 10^4
	// filters the multilevel path is auto-selected and the mapper is the
	// budgeted delta descent; the exact partitioner and the ILP do nothing.
	{name: "compile-large", planBound: 0.05,
		why: "Library path, child process: the 10^4-filter synthetic graph under default options: multilevel coarsen-partition-refine and the budgeted delta-descent mapper; exact partitioner and ILP are bypassed.",
		cells: func() ([]cell, error) {
			g, err := synth.BuildGraph(synth.GraphParams{
				Seed: 10000<<16 | 4, Filters: 10000, MaxRate: 8, MaxOps: 512, SkewWork: true,
			})
			if err != nil {
				return nil, err
			}
			if err := g.Steady(); err != nil {
				return nil, err
			}
			return []cell{{
				name:  "synth-10k",
				build: func() (*sdf.Graph, error) { return g, nil },
				opts:  streammap.Options{Topo: streammap.PairedTree(4)},
			}}, nil
		}},
}

const (
	compileSetupReps = 3
	minPasses        = 2 // the determinism check needs two
	qualityFragments = 64
)

// golden holds the quality numbers of the commit this benchmark was
// defined on. They repeat exactly from run to run, so instead of being
// compared between noisy runs they are checked against these on every run.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	PlanUSPerFrag float64 `json:"plan_us_per_frag"`
	ArtifactKB    float64 `json:"artifact_kb"`
}

// artifactBound is the share by which artifact_kb may exceed the golden value.
const artifactBound = 0.02

// pass is what one pass over the cells measured.
type pass struct {
	wall, cpu             time.Duration
	allocMB               float64
	flattenMS, remapMS    float64
	cellMS                []float64
	compiled              []*driver.Compiled
	planUS, artifactBytes []float64 // per cell
	parts                 []int
}

// runCompile runs a compile workload in a re-exec'd child of this binary,
// so CPU, peak RSS and allocation are the workload's alone.
func runCompile(ctx context.Context, cfg *config, spec compileSpec, res *result) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", spec.name, "-root", cfg.root,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w", spec.name, err)
	}
	if err := json.Unmarshal(out, res); err != nil {
		return fmt.Errorf("%s child printed no result: %w", spec.name, err)
	}
	// The child timed its own set-up; the build came before it.
	res.setN("setup_s", cfg.buildS+res.Metrics["setup_s"].Value, compileSetupReps, "")
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	res.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KB
	if !cfg.writeGolden {
		goldenCheck(res, spec)
	}
	return nil
}

// goldenCheck holds the run's quality numbers to the recorded ones.
// Getting better is always allowed.
func goldenCheck(res *result, spec compileSpec) {
	plan, kb := res.Metrics["plan_us_per_frag"].Value, res.Metrics["artifact_kb"].Value
	var golden map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		res.problem("golden.json: %v", err)
		return
	}
	want, ok := golden[spec.name]
	if !ok {
		res.problem("golden.json has no entry for %s", spec.name)
		return
	}
	if plan > want.PlanUSPerFrag*(1+spec.planBound) {
		res.problem("plan_us_per_frag %v is worse than the golden %v by more than %g", plan, want.PlanUSPerFrag, spec.planBound)
	}
	if kb > want.ArtifactKB*(1+artifactBound) {
		res.problem("artifact_kb %v is worse than the golden %v by more than %g", kb, want.ArtifactKB, artifactBound)
	}
}

// compileChild is the child's main: set-up, timed passes, checks, replay.
func compileChild(ctx context.Context, cfg *config, spec compileSpec) (*result, error) {
	res := newResult(spec.name, cfg.seed, cfg.seconds, cfg.trace)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	var cells []cell
	var setups []float64
	for i := 0; i < compileSetupReps; i++ {
		start := time.Now()
		var err error
		if cells, err = spec.cells(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setups))

	var passes []*pass
	var timed time.Duration
	window := time.Duration(cfg.seconds * float64(time.Second))
	for len(passes) < minPasses || timed < window {
		p, err := onePass(ctx, rec, cells, len(passes))
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 {
			// Only the last pass's results are looked at again; holding
			// every pass's would grow the heap with the number of passes.
			passes[len(passes)-1].compiled = nil
		}
		passes = append(passes, p)
		timed += p.wall
		res.Attempted += len(cells)
	}

	var wallMS, cpuMS, allocs, flattens, remaps []float64
	for _, p := range passes {
		wallMS = append(wallMS, ms(p.wall))
		cpuMS = append(cpuMS, ms(p.cpu))
		allocs = append(allocs, p.allocMB)
		flattens = append(flattens, p.flattenMS)
		remaps = append(remaps, p.remapMS)
	}
	worst, pct := tail(wallMS)
	res.setN("req_per_s", float64(len(passes))/timed.Seconds(), len(passes), "passes per second")
	res.setN("latency_p50_ms", median(wallMS), len(passes), "")
	res.setN("loadgen.latency_p99_ms", worst, len(passes), fmt.Sprintf("p%.4g", pct))
	res.setN("cpu_ms_per_req", median(cpuMS), len(passes), "")
	res.setN("compile_s", median(wallMS)/1e3, len(passes), "")
	res.setN("compile_cpu_s", median(cpuMS)/1e3, len(passes), "")
	res.setN("alloc_mb_per_compile", median(allocs), len(passes), "")
	res.set("sdf.flatten_ms", median(flattens))
	last := passes[len(passes)-1]
	for i, c := range cells {
		var v []float64
		for _, p := range passes {
			v = append(v, p.cellMS[i])
		}
		res.setN("driver.compile_ms."+c.name, median(v), len(v), "")
	}
	if cells[0].remap {
		res.setN("remap_ms", median(remaps), len(passes), "")
		res.set("driver.remap_warm_ms", median(remaps)/float64(len(cells)))
	}
	quality(res, passes)
	interior(res, last)

	// Correctness gate, outside the timed passes.
	for i, c := range cells {
		if c.small != nil {
			if err := functionalCheck(c, cfg.seed); err != nil {
				res.problem("%s: %v", c.name, err)
			}
		} else if err := synth.CheckInvariants(last.compiled[i]); err != nil {
			res.problem("%s: invariants: %v", c.name, err)
		}
	}

	if cfg.trace {
		if err := replayCompile(ctx, rec, res, cells, last); err != nil {
			return nil, err
		}
		if err := rec.write(filepath.Join(cfg.out, "trace-"+spec.name+".json"), spec.name, cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// onePass compiles every cell once. The timed part is flatten + compile;
// quality numbers and the remap are taken after it.
func onePass(ctx context.Context, rec *recorder, cells []cell, n int) (*pass, error) {
	p := &pass{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := selfCPU(), time.Now()
	for i, c := range cells {
		var g *sdf.Graph
		var cc *driver.Compiled
		var err error
		reqID := n*len(cells) + i + 1
		t := time.Now()
		if g, err = c.build(); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		flat := time.Since(t)
		p.flattenMS += ms(flat)
		d := rec.timed("compile", 0, reqID, func() { cc, err = streammap.CompileCtx(ctx, g, c.opts) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		p.cellMS = append(p.cellMS, ms(flat+d))
		p.compiled = append(p.compiled, cc)
	}
	p.wall, p.cpu = time.Since(start), selfCPU()-cpu0
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	for i, c := range cells {
		cc := p.compiled[i]
		if err := clockGuard(c.name, cc); err != nil {
			return nil, err
		}
		r, err := gpusim.RunTiming(cc.Plan, qualityFragments)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		a, err := cc.Artifact()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		// Stage provenance holds wall-clock durations; without it the
		// encoding is a pure function of the compilation.
		a.Stages = nil
		data, err := a.Encode()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		p.planUS = append(p.planUS, r.PerFragmentUS)
		p.artifactBytes = append(p.artifactBytes, float64(len(data)))
		p.parts = append(p.parts, len(cc.Parts.Parts))
		if c.remap {
			d, err := warmRemap(ctx, a)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			p.remapMS += ms(d)
		}
	}
	return p, nil
}

// warmRemap drops the artifact's last GPU and re-targets the compilation
// onto the survivors, warm-started from the old assignment: the mapping
// layer in its incremental mode.
func warmRemap(ctx context.Context, a *artifact.Artifact) (time.Duration, error) {
	start := time.Now()
	last := len(a.Options.Topo.GPUNodes) - 1
	degraded, gpuMap, err := driver.Degrade(a, topology.Degradation{RemoveGPUs: []int{last}})
	if err != nil {
		return 0, err
	}
	if _, err := driver.Remap(ctx, a, degraded, driver.RemapOptions{GPUMap: gpuMap}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// quality reports the two quality numbers and requires them (and the
// partition counts) identical across passes.
func quality(res *result, passes []*pass) {
	first := passes[0]
	for n, p := range passes[1:] {
		for i := range first.planUS {
			if p.planUS[i] != first.planUS[i] || p.artifactBytes[i] != first.artifactBytes[i] || p.parts[i] != first.parts[i] {
				res.problem("pass %d differs from pass 0 on cell %d: plan %v vs %v us/fragment, artifact %v vs %v bytes, %d vs %d partitions",
					n+1, i, p.planUS[i], first.planUS[i], p.artifactBytes[i], first.artifactBytes[i], p.parts[i], first.parts[i])
			}
		}
	}
	plan := geomean(first.planUS)
	kb, parts := 0.0, 0
	for i := range first.artifactBytes {
		kb += first.artifactBytes[i] / 1024
		parts += first.parts[i]
	}
	res.setN("plan_us_per_frag", plan, len(first.planUS), "geometric mean over cells")
	res.set("artifact_kb", kb)
	res.set("partition.parts", float64(parts))
}

// interior reads the counts the compiler leaves on its result.
func interior(res *result, p *pass) {
	var edges, ilpWins int
	var ml partition.MLStats
	var objectives []float64
	for _, c := range p.compiled {
		edges += len(c.PDG.Edges)
		if c.Assign.Method == "ilp" {
			ilpWins++
		}
		objectives = append(objectives, c.Assign.Objective)
		if s := c.Parts.ML; s != nil {
			ml.Levels += s.Levels
			ml.Merges += s.Merges
			ml.Moves += s.Moves
			ml.MoveEvals += s.MoveEvals
		}
	}
	res.set("pdg.edges", float64(edges))
	res.set("mapping.ilp_wins", float64(ilpWins))
	res.set("mapping.objective_us", geomean(objectives))
	res.set("partition.ml_levels", float64(ml.Levels))
	res.set("partition.ml_merges", float64(ml.Merges))
	res.set("partition.ml_moves", float64(ml.Moves))
	res.set("partition.ml_move_evals", float64(ml.MoveEvals))
}

// functionalCheck compiles the cell's program at a small size, runs it on
// the simulator with seeded inputs and requires every output token equal
// to what the independent host interpreter produces.
func functionalCheck(c cell, seed uint64) error {
	const fragIters, fragments = 8, 4
	g, err := c.small()
	if err != nil {
		return err
	}
	cc, err := streammap.Compile(g, streammap.Options{Topo: streammap.PairedTree(2), FragmentIters: fragIters})
	if err != nil {
		return err
	}
	r := synth.NewRand(seed)
	inputs := make([][]sdf.Token, len(g.InputPorts()))
	for i := range inputs {
		inputs[i] = make([]sdf.Token, cc.InputNeed(i, fragments))
		for j := range inputs[i] {
			inputs[i][j] = sdf.Token(r.Intn(17))
		}
	}
	got, err := cc.Execute(inputs, fragments)
	if err != nil {
		return err
	}
	// The interpreter gets its own graph: filters may keep state.
	g2, err := c.small()
	if err != nil {
		return err
	}
	ref, err := sdf.NewInterp(g2)
	if err != nil {
		return err
	}
	want, err := ref.Run(fragIters*fragments, inputs)
	if err != nil {
		return err
	}
	if len(got.Outputs) != len(want) {
		return fmt.Errorf("simulator has %d output ports, interpreter %d", len(got.Outputs), len(want))
	}
	for p := range want {
		if len(want[p]) == 0 || len(got.Outputs[p]) < len(want[p]) {
			return fmt.Errorf("port %d: simulator produced %d tokens, interpreter %d", p, len(got.Outputs[p]), len(want[p]))
		}
		for i := range want[p] {
			if got.Outputs[p][i] != want[p][i] {
				return fmt.Errorf("port %d token %d: simulator %v, interpreter %v", p, i, got.Outputs[p][i], want[p][i])
			}
		}
	}
	return nil
}

// replayCompile attributes compile time to layers: for each cell of the
// last pass the benchmark calls each layer's public function itself, on the
// Compiled's public fields with a fresh estimation engine, under a "replay"
// root span beside the timed "compile" spans.
func replayCompile(ctx context.Context, rec *recorder, res *result, cells []cell, p *pass) error {
	sums := map[string]float64{}
	var engine pee.Stats
	var compileMS, stagesMS float64
	for i, c := range cells {
		cc := p.compiled[i]
		g, opts := cc.Graph, driver.Normalized(cc.Options)
		reqID := -(i + 1)
		root := rec.begin("replay", 0, reqID)
		var err error
		step := func(name string, f func()) {
			if err == nil {
				sums[name] += ms(rec.timed(name, root, reqID, f))
			}
		}
		if c.remap {
			step("sdf.flatten", func() { _, err = c.build() })
		}
		var prof *pee.Profile
		var eng *pee.Engine
		var parts *partition.Result
		var dg *pdg.PDG
		var a *artifact.Artifact
		var data []byte
		step("pee.profile", func() { prof = pee.ProfileGraph(g, opts.Device); eng = pee.NewEngine(g, prof) })
		step("partition.run", func() {
			if cc.Parts.ML != nil {
				parts, err = partition.Multilevel(ctx, g, eng, partition.MLOptions{})
			} else {
				parts, err = partition.RunCtx(ctx, g, eng, opts.Workers)
			}
		})
		step("pdg.build", func() { dg, err = pdg.Build(g, parts.Parts) })
		step("mapping.solve", func() {
			mo := opts.MapOptions
			mo.Workers = opts.Workers
			_, err = mapping.SolveCtx(ctx, cc.Problem, mo)
		})
		step("gpusim.run_timing", func() { _, err = gpusim.RunTiming(cc.Plan, qualityFragments) })
		step("driver.export_artifact", func() { a, err = cc.Artifact() })
		step("artifact.encode", func() { data, err = a.Encode() })
		step("artifact.decode", func() { a, err = artifact.Decode(data) })
		step("driver.rehydrate", func() { _, err = driver.FromArtifact(g, a, cc.Options) })
		if c.remap {
			step("driver.remap", func() { _, err = warmRemap(ctx, a) })
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", c.name, err)
		}
		rec.end(root)
		if len(dg.Edges) != len(cc.PDG.Edges) || len(parts.Parts) != len(cc.Parts.Parts) {
			return fmt.Errorf("replay %s: %d partitions and %d PDG edges, the compile had %d and %d",
				c.name, len(parts.Parts), len(dg.Edges), len(cc.Parts.Parts), len(cc.PDG.Edges))
		}
		st := eng.Stats()
		engine.Queries += st.Queries
		engine.Misses += st.Misses
		engine.Uncached += st.Uncached
		compileMS += p.cellMS[i]
		for _, s := range cc.Stages {
			stagesMS += ms(s.Duration)
		}
	}
	for name, metricName := range map[string]string{
		"pee.profile": "pee.profile_ms", "partition.run": "partition.run_ms", "pdg.build": "pdg.build_ms",
		"mapping.solve": "mapping.solve_ms", "gpusim.run_timing": "gpusim.run_timing_ms",
	} {
		res.set(metricName, sums[name])
	}
	n := float64(len(cells))
	res.set("driver.export_artifact_us", sums["driver.export_artifact"]*1e3/n)
	res.set("artifact.encode_us", sums["artifact.encode"]*1e3/n)
	res.set("artifact.decode_us", sums["artifact.decode"]*1e3/n)
	res.set("driver.rehydrate_us", sums["driver.rehydrate"]*1e3/n)
	res.set("pee.queries", float64(engine.Queries))
	res.set("pee.uncached", float64(engine.Uncached))
	res.set("pee.hit_ratio", engine.HitRate())
	replayed := sums["sdf.flatten"] + sums["pee.profile"] + sums["partition.run"] + sums["pdg.build"] + sums["mapping.solve"]
	res.setN("driver.replay_coverage", replayed/compileMS, len(cells),
		fmt.Sprintf("the compiles' own Stages cover %.3f", (stagesMS+p.flattenMS)/compileMS))
	return nil
}
