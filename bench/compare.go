package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// worseBy is the share of a by which b is worse, given the metric's
// direction; negative when b is better.
func worseBy(s metricSpec, a, b float64) float64 {
	if s.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints, per workload and end-to-end metric, both values,
// their relative difference and the metric's bound, and returns how many
// metrics b has worse than a by more than the bound. Workloads or metrics
// missing from either side count as regressions: a comparison that
// silently skips rows proves nothing.
func compareResults(w io.Writer, a, b *resultFile) int {
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	bad := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from the second file\n", ra.Workload)
			bad++
			continue
		}
		for _, s := range endToEnd {
			ma, okA := ra.Metrics[s.Name]
			mb, okB := rb.Metrics[s.Name]
			if !okA || !okB || !(ma.Value > 0) {
				fmt.Fprintf(w, "%-14s %-16s missing or not positive\n", ra.Workload, s.Name)
				bad++
				continue
			}
			d := worseBy(s, ma.Value, mb.Value)
			verdict := ""
			if d > s.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				ra.Workload, s.Name, ma.Value, mb.Value, 100*d, 100*s.Bound, verdict)
		}
		if !rb.Correct {
			fmt.Fprintf(w, "%-14s failed its checks in the second file\n", ra.Workload)
			bad++
		}
	}
	return bad
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	return &f, nil
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s  nproc %d  seed %d  window %gs\n", pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NumCPU, a.Env.Seed, a.Env.Seconds)
	fmt.Fprintf(w, "b: %s  commit %s  %s  nproc %d  seed %d  window %gs\n", pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NumCPU, b.Env.Seed, b.Env.Seconds)
	if a.Env.Trace || b.Env.Trace {
		return fmt.Errorf("traced result files carry no end-to-end metrics; compare untraced runs")
	}
	if bad := compareResults(w, a, b); bad > 0 {
		return fmt.Errorf("%d metrics worse than their bound", bad)
	}
	return nil
}
