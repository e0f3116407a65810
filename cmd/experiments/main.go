// Command experiments regenerates the paper's tables and figures on the
// simulated platform, and runs the serving fleet rigs.
//
// Usage:
//
//	experiments [-exp all|fig4.1|fig4.2|fig4.3|fig4.4|table5.1|ablation|scaling] [-fragments N] [-scale-max N]
//	experiments -exp loadtest -mix multinode|chaos [-requests 200] [-fleet 16]
//	            [-seed S] [-fault-spec SPEC]
//
// Runs sweep every N of every application; -exp all takes about 6 s on a
// 2-core Xeon.
//
// -exp loadtest runs one of the two fleet rigs of internal/server/loadtest;
// -requests is the traffic per phase and -fleet the client workers. The
// multinode mix brings up a 3-node serving fleet over one shared artifact
// store, kills one node mid-run and re-adds it cold, asserting the
// fleet-wide hit rate survives the churn and the rejoining node
// warm-starts from the store. The chaos mix brings up the same 3-node
// fleet with deterministic fault injection on every seam (peer transport,
// disk tier, shared store, clocks), crashes one node, tears its persistent
// entries mid-file and restarts it — then exits nonzero unless every
// response was a 200 or 429 and every served body was byte for byte a
// clean local compile's encoding (-fault-spec overrides the default fault
// mix). Any other -mix exits 2. Single-node serving is measured by
// `bash bench/run.sh -workload serve-hot|serve-disk|serve-mixed`. The rigs
// are excluded from -exp all: they exercise the serving layer, not the
// paper.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"streammap/internal/experiments"
	"streammap/internal/faultinject"
	"streammap/internal/server/loadtest"
)

func main() {
	exp := flag.String("exp", "all", "which experiment: all, fig4.1, fig4.2, fig4.3, fig4.4, table5.1, ablation, scaling, loadtest")
	fragments := flag.Int("fragments", 0, "override fragments per measurement")
	scaleMax := flag.Int("scale-max", 0, "scaling: largest filter count to sweep (default 100000; the 1000000 cell's compile allocates 1.26 GB)")
	requests := flag.Int("requests", 200, "loadtest: requests per phase")
	fleet := flag.Int("fleet", 16, "loadtest: concurrent client workers")
	mix := flag.String("mix", "multinode", "loadtest: fleet rig (multinode, chaos)")
	seed := flag.Uint64("seed", 1, "loadtest: workload seed")
	faultSpec := flag.String("fault-spec", "", "loadtest chaos mix: fault-injection spec (empty = the default chaos mix)")
	flag.Parse()

	if *exp == "loadtest" {
		var err error
		switch *mix {
		case "multinode":
			err = runMultiNode(loadtest.MultiNodeParams{Seed: *seed, RequestsPerPhase: *requests, Workers: *fleet})
		case "chaos":
			spec, perr := faultinject.Parse(*faultSpec)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "loadtest: -fault-spec: %v\n", perr)
				os.Exit(2)
			}
			err = runChaos(loadtest.ChaosParams{Seed: *seed, RequestsPerPhase: *requests, Workers: *fleet, Spec: spec})
		default:
			fmt.Fprintf(os.Stderr, "loadtest: unknown -mix %q (multinode or chaos)\n", *mix)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			os.Exit(1)
		}
		return
	}

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

// runMultiNode runs the fleet churn rig and fails unless every request
// succeeded and the re-added node warm-started from the shared store.
func runMultiNode(p loadtest.MultiNodeParams) error {
	res, err := loadtest.RunMultiNode(context.Background(), p)
	if res != nil {
		res.Fprint(os.Stdout)
	}
	switch {
	case err != nil:
		return err
	case !res.RejoinOK:
		return fmt.Errorf("re-added node did not warm-start from the shared store")
	case res.Steady.Errors > 0 || res.Churn.Errors > 0:
		return fmt.Errorf("requests failed during the run")
	}
	return nil
}

// runChaos runs the fault-injection rig and fails unless every response
// was a 200 or a 429, every 200 was a clean compile's bytes, and the fault
// schedule fired.
func runChaos(p loadtest.ChaosParams) error {
	res, err := loadtest.RunChaos(context.Background(), p)
	if res != nil {
		res.Fprint(os.Stdout)
	}
	switch {
	case err != nil:
		return err
	case !res.Availability():
		return fmt.Errorf("non-429 errors under chaos")
	case len(res.EquivalenceFailures) > 0:
		return fmt.Errorf("%d served artifacts differ from clean local compiles", len(res.EquivalenceFailures))
	case res.Faults.Total() == 0:
		return fmt.Errorf("the fault schedule fired nothing")
	}
	return nil
}
