// Package experiments regenerates every table and figure of the paper's
// evaluation (Chapter IV) and future-work chapter (Table 5.1) on the
// simulated platform. Each experiment returns a printable Table; the
// cmd/experiments binary and the repository's bench suite are thin wrappers
// around these functions.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"streammap/internal/apps"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// Config tunes experiment scale.
type Config struct {
	// Fragments per measured run.
	Fragments int
	// Tiny trims every N sweep to its first and middle sizes, and the
	// scaling sweep to four small cells (unit tests).
	Tiny bool
	// ScaleMax caps the scaling sweep's large-graph cells by filter count
	// (default 1e5; set 1e6 for the million-filter cell, whose compile
	// allocates 1.26 GB and takes ≈ 4.7 s on a 2-core Xeon).
	ScaleMax int
}

// parMap evaluates cell(0..n-1) on GOMAXPROCS workers and returns the
// results in index order, so row order never depends on scheduling; the
// error reported is the lowest-index one, so a failure is deterministic
// too. Cell values are deterministic as well: the exact mapper's budget is
// a node count, not a clock.
func parMap[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := min(runtime.GOMAXPROCS(0), n); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i], errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Default returns the full-scale configuration. Throughput runs are
// timing-only, so the fragment count can comfortably exceed the pipeline
// fill depth.
func Default() Config {
	return Config{Fragments: 64}
}

// Tiny returns the smallest useful configuration (unit tests).
func Tiny() Config {
	c := Default()
	c.Tiny = true
	c.Fragments = 48
	return c
}

func (c Config) sizes(app apps.App, compare bool) []int {
	s := app.Sizes
	if compare {
		s = app.CompareSizes
	}
	if len(s) == 0 {
		return nil
	}
	if c.Tiny {
		return []int{s[0], s[len(s)/2]}
	}
	return s
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	line(dashes(widths))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// input produces deterministic pseudo-random tokens in [0, mod).
func input(n int64, mod int) []sdf.Token {
	out := make([]sdf.Token, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		out[i] = sdf.Token((state >> 33) % uint64(mod))
	}
	return out
}

// compileApp runs the full flow for one app instance. Workers is pinned to
// 1: the experiments' parallelism is cell-granular (parMap), and nesting a
// per-compile worker pool under every concurrent cell would oversubscribe
// the CPU without adding coverage.
func compileApp(g *sdf.Graph, gpus int, part driver.PartitionerKind, mapper driver.MapperKind,
	dev gpu.Device) (*driver.Compiled, error) {
	return driver.Compile(context.Background(), g, driver.Options{
		Device:      dev,
		Topo:        topology.PairedTree(gpus),
		Partitioner: part,
		Mapper:      mapper,
		Workers:     1,
	})
}

// measure executes a compiled plan (timing only) and returns the
// steady-state time per fragment in microseconds.
func measure(c *driver.Compiled, fragments int) (float64, error) {
	res, err := gpusim.RunTiming(c.Plan, fragments)
	if err != nil {
		return 0, err
	}
	return res.PerFragmentUS, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}
