// Command experiments regenerates the paper's tables and figures on the
// simulated platform.
//
// Usage:
//
//	experiments [-exp all|fig4.1|fig4.2|fig4.3|fig4.4|table5.1|ablation|scaling] [-fragments N] [-scale-max N]
//
// Runs sweep every N of every application; -exp all takes about 6 s on a
// 2-core Xeon.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"streammap/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "which experiment: all, fig4.1, fig4.2, fig4.3, fig4.4, table5.1, ablation, scaling")
	fragments := flag.Int("fragments", 0, "override fragments per measurement")
	scaleMax := flag.Int("scale-max", 0, "scaling: largest filter count to sweep (default 100000; the 1000000 cell's compile allocates 1.26 GB)")
	flag.Parse()

	cfg := experiments.Default()
	if *fragments > 0 {
		cfg.Fragments = *fragments
	}
	if *scaleMax > 0 {
		cfg.ScaleMax = *scaleMax
	}

	type runner struct {
		name string
		run  func() (*experiments.Table, error)
	}
	all := []runner{
		{"fig4.1", func() (*experiments.Table, error) { t, _, err := experiments.Fig41(cfg); return t, err }},
		{"fig4.2", func() (*experiments.Table, error) { t, _, err := experiments.Fig42(cfg); return t, err }},
		{"fig4.3", func() (*experiments.Table, error) { t, _, err := experiments.Fig43(cfg); return t, err }},
		{"fig4.4", func() (*experiments.Table, error) { t, _, err := experiments.Fig44(cfg); return t, err }},
		{"table5.1", func() (*experiments.Table, error) { t, _, err := experiments.Table51(cfg); return t, err }},
		{"ablation", func() (*experiments.Table, error) { t, _, err := experiments.Ablations(cfg); return t, err }},
		{"scaling", func() (*experiments.Table, error) { t, _, err := experiments.ScalingSweep(cfg); return t, err }},
	}

	ran := false
	for _, r := range all {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		start := time.Now()
		t, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
		fmt.Printf("(%s completed in %.1fs)\n\n", r.name, time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
