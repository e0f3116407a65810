package main

import (
	"fmt"
	"strings"
)

// metricSpec declares one metric. The two tables below are the single
// source of the names, units, directions and bounds; BENCHMARK.json repeats
// them and a test keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of streammap sees. An operation ("req") is one
// HTTP compile request on the serving workloads and one pass on the compile
// workloads (compile-apps: the eight paper apps once; compile-large: one
// compile), so every metric exists, and is never 0, on every workload.
//
// The bounds are as wide as they are because of what runs of one commit on
// one seed do on the 2-core reference box: the quartiles of ten runs lie
// 6–14 % of the median apart on every timing here (goroutine wake-ups and
// GC cycles land differently each run), and a bound has to clear that two
// or three times over before a regression can be told from a slow run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// compileCells names the rows of the compile workloads; each has a
// driver.compile_ms.<cell> metric.
var compileCells = []string{
	"DES-32", "FMRadio-32", "FFT-512", "DCT-30", "MatMul2-8", "MatMul3-6", "BitonicRec-64", "Bitonic-64",
	"synth-10k",
}

// perLayer is what single layers report, from the traced run only. A value
// of 0 with note "absent" means the layer is not on that workload's path
// (or the daemon does not export the family).
var perLayer = func() []metricSpec {
	specs := func(better string) func(unit string, names ...string) []metricSpec {
		return func(unit string, names ...string) (out []metricSpec) {
			for _, n := range names {
				out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
			}
			return out
		}
	}
	lower, higher := specs("lower"), specs("higher")
	var m []metricSpec
	add := func(s []metricSpec) { m = append(m, s...) }

	// loadgen: the generator's own view (httptrace marks per request).
	add(higher("count", "loadgen.sent", "loadgen.ok"))
	add(lower("count", "loadgen.shed", "loadgen.failed", "loadgen.corpus_infeasible"))
	// The tail is reported here and not gated: on serve-mixed the highest
	// percentile with ten samples beyond it is set by which few large
	// compiles collided, and ten runs of one seed spread by 20–40 % of
	// their median, wider than the widest bound allowed.
	add(lower("ms", "loadgen.latency_p99_ms", "loadgen.late_p99_ms", "loadgen.write_request_mean_ms", "loadgen.ttfb_mean_ms",
		"loadgen.read_body_mean_ms", "loadgen.hit_p50_ms", "loadgen.fresh_p50_ms"))
	add(lower("bytes", "loadgen.req_bytes_mean", "loadgen.resp_bytes_mean"))
	add(lower("s", "loadgen.cpu_s"))
	add(lower("share", "loadgen.trace_overhead_share", "loadgen.slo_miss_share", "loadgen.fail_share"))

	// server, core, driver: /metrics deltas over the window, and replays.
	add(higher("count", "server.requests", "server.coalesced"))
	add(lower("count", "server.responses_429", "server.responses_5xx", "server.artifact_encodes"))
	add(lower("ms", "server.handler_mean_ms", "server.admission_wait_mean_ms", "server.drain_ms"))
	add(lower("share", "server.cpu_util"))
	add(lower("us", "server.body_decode_us"))

	add(higher("count", "core.memory_hits", "core.disk_hits"))
	add(lower("count", "core.recompiles", "core.disk_writes", "core.disk_errors", "core.evictions",
		"core.memory_hit_allocs"))
	add(higher("share", "core.hit_ratio"))
	add(lower("count", "core.encodes_per_recompile"))
	add(lower("ms", "core.probe_disk_mean_ms", "core.persist_wait_ms"))
	add(lower("us", "core.key_us", "core.memory_hit_us", "core.disk_hit_us"))

	add(lower("us", "sdf.import_graph_us", "sdf.fingerprint_us"))
	add(lower("ms", "sdf.flatten_ms"))
	add(lower("us", "artifact.encode_us", "artifact.decode_us"))

	add(lower("ms", "driver.compile_mean_ms", "driver.stage_profile_ms", "driver.stage_partition_ms",
		"driver.stage_pdg_ms", "driver.stage_map_ms", "driver.stage_plan_ms", "driver.remap_warm_ms"))
	add(lower("us", "driver.import_options_us", "driver.export_artifact_us", "driver.rehydrate_us"))
	for _, c := range compileCells {
		add(lower("ms", "driver.compile_ms."+c))
	}
	add(higher("share", "driver.replay_coverage"))

	// The compiler's interior, replayed on the Compiled's public fields.
	add(lower("ms", "pee.profile_ms", "partition.run_ms", "pdg.build_ms", "mapping.solve_ms", "gpusim.run_timing_ms"))
	add(lower("count", "pee.queries", "pee.uncached", "partition.parts", "partition.ml_levels",
		"partition.ml_merges", "partition.ml_moves", "partition.ml_move_evals", "pdg.edges"))
	add(higher("share", "pee.hit_ratio"))
	add(higher("count", "mapping.ilp_wins"))
	add(lower("us", "mapping.objective_us"))

	// Compile-workload numbers that are not gated as end-to-end metrics:
	// the timings repeat what latency_p50_ms and cpu_ms_per_req gate, and
	// the two quality numbers repeat exactly on every run, so they are
	// gated by the golden check instead (see README).
	add(lower("s", "compile_s", "compile_cpu_s"))
	add(lower("MB", "alloc_mb_per_compile"))
	add(lower("us", "plan_us_per_frag"))
	add(lower("KB", "artifact_kb"))
	add(lower("ms", "remap_ms"))
	return m
}()

func specOf(name string) (metricSpec, bool) {
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range table {
			if s.Name == name {
				return s, true
			}
		}
	}
	return metricSpec{}, false
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"` // every check that failed
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(workload string, seed uint64, seconds float64, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Correct: true, Metrics: map[string]metric{}}
}

// set records a metric; the name must be in one of the tables.
func (r *result) set(name string, value float64) { r.setN(name, value, 0, "") }

func (r *result) setN(name string, value float64, samples int, note string) {
	s, ok := specOf(name)
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = metric{Value: value, Unit: s.Unit, Samples: samples, Note: note}
}

// problem records a failed check; the run is then not correct.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// check makes a run incorrect if it lacks an end-to-end metric or reports
// one as 0 or less: each is defined on every workload, so that is a bug.
func (r *result) check() {
	for _, s := range endToEnd {
		if m, ok := r.Metrics[s.Name]; !ok || !(m.Value > 0) {
			r.problem("end-to-end metric %s missing or not positive (%v)", s.Name, m.Value)
		}
	}
}

// selected returns the metrics the run's mode reports — every end-to-end
// metric untraced, every per-layer metric traced. Per-layer metrics this
// workload does not reach are 0 with note "absent".
func (r *result) selected() map[string]metric {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	out := map[string]metric{}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			m = metric{Unit: s.Unit, Note: "absent"}
		}
		out[s.Name] = m
	}
	return out
}

// table renders the selected metrics, one per line, for people.
func (r *result) table() string {
	sel := r.selected()
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  seed=%d  window=%gs  trace=%v  correct=%v  attempted=%d  failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, s := range specs {
		m := sel[s.Name]
		fmt.Fprintf(&b, "  %-32s %14.4f %-6s", s.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(&b, " n=%d", m.Samples)
		}
		if s.Bound > 0 {
			fmt.Fprintf(&b, " bound=%g", s.Bound)
		}
		if m.Note != "" {
			fmt.Fprintf(&b, " (%s)", m.Note)
		}
		b.WriteByte('\n')
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  FAILED CHECK: %s\n", p)
	}
	return b.String()
}
