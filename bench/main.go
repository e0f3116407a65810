// Command bench measures streammap end to end and layer by layer: three
// serving workloads against a real streammapd subprocess, two
// library-compile workloads in a child process, and a traced run of each.
// See README.md in this directory.
//
//	bash bench/run.sh                                   all five workloads, end-to-end metrics
//	bash bench/run.sh -trace 1                          the same, traced: per-layer metrics and span files
//	bash bench/run.sh -workload serve-hot -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -compare a.json b.json            exit 1 if b is worse than a beyond a bound
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	root    string // the checkout
	tmp     string // scratch under the checkout, removed on exit
	out     string // bench/out
	bin     string // the built streammapd
	seed    uint64
	seconds float64
	trace   bool
	// writeGolden re-records golden.json from this run instead of holding
	// the run to it.
	writeGolden bool
	buildS      float64 // seconds from the command's start until everything was built
}

// workload is a declared workload: its name and why it exists.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func workloads() []workload {
	var out []workload
	for _, s := range serveSpecs {
		out = append(out, workload{s.name, s.why})
	}
	for _, s := range compileSpecs {
		out = append(out, workload{s.name, s.why})
	}
	return out
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.Name)
	}
	return out
}

// runSeconds is the window the driver measures with (BENCHMARK.json's
// run_seconds) and the default of -seconds.
const runSeconds = 10

// declaration renders BENCHMARK.json from the tables in this package, so
// the file at the root of the repository is generated, not maintained.
func declaration() ([]byte, error) {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layer
	for _, s := range perLayer {
		layers = append(layers, layer{s.Name, s.Unit, s.Better})
	}
	b, err := json.MarshalIndent(struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layer      `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads(), endToEnd, layers}, "", "  ")
	return append(b, '\n'), err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	start := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv("BENCH_T0_NS"), 10, 64); err == nil {
		start = time.Unix(0, ns) // run.sh's clock: the build of this binary counts
	}
	var cfg config
	only := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+") and end with the result as one JSON line; default: all of them")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of each timed window")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics; 0: the end-to-end metrics")
	flag.StringVar(&cfg.root, "root", "", "the streammap checkout (default: found from the working directory)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if the second is worse beyond a bound")
	outFile := flag.String("out", "", "where the all-workloads result file goes (default bench/out/result.json, traced: result-trace.json)")
	child := flag.String("child", "", "internal: run a compile workload in this process")
	declare := flag.Bool("declare", false, "print BENCHMARK.json, generated from the benchmark's own tables, and exit")
	flag.BoolVar(&cfg.writeGolden, "write-golden", false, "rewrite bench/golden.json from this run's compile workloads (only for a change that corrects the benchmark)")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	if *declare {
		b, err := declaration()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cfg.locate(); err != nil {
		return err
	}

	if *child != "" {
		for _, spec := range compileSpecs {
			if spec.name == *child {
				res, err := compileChild(ctx, &cfg, spec)
				if err != nil {
					return err
				}
				return json.NewEncoder(os.Stdout).Encode(res)
			}
		}
		return fmt.Errorf("no compile workload %q", *child)
	}

	names := workloadNames()
	if *only != "" {
		names = []string{*only}
	}
	var err error
	if cfg.tmp, err = os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-*"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmp)
	// Built for every workload, also the two that start no daemon, so that
	// setup_s means the same everywhere; into the run's scratch dir, so
	// concurrent runs cannot tear each other's binary. The Go build cache
	// makes it a relink.
	if cfg.bin, err = buildDaemon(ctx, cfg.root, cfg.tmp); err != nil {
		return err
	}
	cfg.buildS = time.Since(start).Seconds()

	file := resultFile{Env: environment(&cfg)}
	for _, n := range names {
		res, err := runWorkload(ctx, &cfg, n)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		res.check()
		fmt.Print(res.table())
		file.Workloads = append(file.Workloads, res)
	}

	if cfg.writeGolden {
		if err := file.writeGolden(filepath.Join(cfg.root, "bench", "golden.json")); err != nil {
			return err
		}
	}
	if *only == "" {
		path := *outFile
		if path == "" {
			path = filepath.Join(cfg.out, "result.json")
			if cfg.trace {
				path = filepath.Join(cfg.out, "result-trace.json")
			}
		}
		if err := file.write(path); err != nil {
			return err
		}
		fmt.Println("results written to", path)
	} else {
		// The contract's last line: exactly these four keys.
		res := file.Workloads[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, contractMetrics(res.selected())})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	for _, res := range file.Workloads {
		if !res.Correct {
			return fmt.Errorf("%s failed its checks", res.Workload)
		}
	}
	return nil
}

// contractMetrics strips a metric to the two keys the contract names.
func contractMetrics(in map[string]metric) map[string]metric {
	out := make(map[string]metric, len(in))
	for k, m := range in {
		out[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// locate finds the checkout: the directory that holds cmd/streammapd and
// this benchmark.
func (c *config) locate() error {
	if c.root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		for _, dir := range []string{wd, filepath.Dir(wd)} {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "streammapd", "main.go")); err == nil {
				c.root = dir
				break
			}
		}
		if c.root == "" {
			return fmt.Errorf("no streammap checkout at or above %s; pass -root", wd)
		}
	}
	abs, err := filepath.Abs(c.root)
	if err != nil {
		return err
	}
	c.root = abs
	c.out = filepath.Join(c.root, "bench", "out")
	return os.MkdirAll(filepath.Join(c.root, ".bench_build"), 0o755)
}

// runWorkload runs one workload and, traced, writes its span file.
func runWorkload(ctx context.Context, cfg *config, name string) (*result, error) {
	res := newResult(name, cfg.seed, cfg.seconds, cfg.trace)
	for _, spec := range serveSpecs {
		if spec.name != name {
			continue
		}
		var rec *recorder
		if cfg.trace {
			rec = newRecorder()
		}
		if err := runServe(ctx, cfg, spec, res, rec); err != nil {
			return nil, err
		}
		return res, rec.write(filepath.Join(cfg.out, "trace-"+name+".json"), name, cfg.seed)
	}
	for _, spec := range compileSpecs {
		if spec.name == name {
			return res, runCompile(ctx, cfg, spec, res)
		}
	}
	return nil, fmt.Errorf("no such workload (have %s)", strings.Join(workloadNames(), ", "))
}

// env says what produced a result file.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Trace      bool    `json:"trace"`
}

func environment(cfg *config) env {
	return env{
		Commit: commitOf(cfg.root), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}
}

// commitOf reads HEAD from the checkout's .git without running git (which
// would search parent directories). A checkout that is not a repository
// has commit "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

// resultFile is what an all-workloads run writes and -compare reads.
type resultFile struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeGolden records the compile workloads' quality numbers.
func (f *resultFile) writeGolden(path string) error {
	golden := map[string]goldenEntry{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &golden); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, res := range f.Workloads {
		if m, ok := res.Metrics["plan_us_per_frag"]; ok {
			golden[res.Workload] = goldenEntry{PlanUSPerFrag: m.Value, ArtifactKB: res.Metrics["artifact_kb"].Value}
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
