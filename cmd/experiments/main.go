// Command experiments regenerates the paper's tables and figures on the
// simulated platform, and runs the serving load-test benchmark.
//
// Usage:
//
//	experiments [-exp all|fig4.1|fig4.2|fig4.3|fig4.4|table5.1|ablation|scaling] [-quick] [-fragments N]
//	experiments -exp loadtest [-server-url URL] [-requests 200] [-rps 100]
//	            [-fleet 16] [-mix hot|unique|mixed|nodeloss|multinode|chaos]
//	            [-seed S] [-verify] [-fault-spec SPEC]
//
// Full runs sweep every N of every application and can take several
// minutes; -quick trims each sweep to three sizes.
//
// -exp loadtest replays a seeded synthetic compile workload against a
// streammapd server (started in-process on a loopback port when
// -server-url is empty) and reports throughput, latency percentiles and
// the server's cache/coalescing deltas. The nodeloss mix additionally
// fails a device halfway through the run and feeds every subsequent
// compile back through /v1/remap, asserting each in-flight request still
// gets a valid degraded plan. The multinode mix instead brings up a
// 3-node serving fleet over one shared artifact store, kills one node
// mid-run and re-adds it cold, asserting the fleet-wide hit rate survives
// the churn and the rejoining node warm-starts from the store. The chaos
// mix brings up the same 3-node fleet with deterministic fault injection
// on every seam (peer transport, disk tier, shared store, clocks),
// crashes one node, tears its persistent entries mid-file and restarts
// it — then exits nonzero unless every response was a 200 or 429 and
// every served body was byte for byte a clean local compile's encoding
// (-fault-spec overrides the default fault mix). These mixes are
// excluded from -exp all: they benchmark the serving layer, not the paper.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"streammap/internal/experiments"
	"streammap/internal/faultinject"
	"streammap/internal/server"
	"streammap/internal/server/client"
	"streammap/internal/server/loadtest"
)

func main() {
	exp := flag.String("exp", "all", "which experiment: all, fig4.1, fig4.2, fig4.3, fig4.4, table5.1, ablation, scaling, loadtest")
	quick := flag.Bool("quick", false, "trim N sweeps to three sizes per app")
	fragments := flag.Int("fragments", 0, "override fragments per measurement")
	scaleMax := flag.Int("scale-max", 0, "scaling: largest filter count to sweep (default 100000; the 1000000 cell allocates 1.6 GB)")
	serverURL := flag.String("server-url", "", "loadtest: target server (empty = start one in-process)")
	requests := flag.Int("requests", 200, "loadtest: total requests")
	rps := flag.Float64("rps", 100, "loadtest: target request rate (0 = unpaced)")
	fleet := flag.Int("fleet", 16, "loadtest: concurrent client workers")
	mix := flag.String("mix", "mixed", "loadtest: traffic mix (hot, unique, mixed, nodeloss, multinode, chaos)")
	seed := flag.Uint64("seed", 1, "loadtest: workload seed")
	verify := flag.Bool("verify", false, "loadtest: check served artifacts against local compiles")
	faultSpec := flag.String("fault-spec", "", "loadtest chaos mix: fault-injection spec (empty = the default chaos mix)")
	flag.Parse()

	if *exp == "loadtest" && loadtest.Mix(*mix) == loadtest.MixChaos {
		spec, err := faultinject.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: -fault-spec: %v\n", err)
			os.Exit(2)
		}
		res, err := loadtest.RunChaos(context.Background(), loadtest.ChaosParams{
			Seed:             *seed,
			RequestsPerPhase: *requests,
			Workers:          *fleet,
			Spec:             spec,
		})
		if res != nil {
			res.Fprint(os.Stdout)
		}
		if err == nil && !res.Availability() {
			err = fmt.Errorf("non-429 errors under chaos")
		}
		if err == nil && len(res.EquivalenceFailures) > 0 {
			err = fmt.Errorf("%d served artifacts differ from clean local compiles", len(res.EquivalenceFailures))
		}
		if err == nil && res.Faults.Total() == 0 {
			err = fmt.Errorf("the fault schedule fired nothing")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "loadtest" && loadtest.Mix(*mix) == loadtest.MixMultiNode {
		// The multinode mix owns its servers (it kills and re-adds one),
		// so it cannot target -server-url.
		res, err := loadtest.RunMultiNode(context.Background(), loadtest.MultiNodeParams{
			Seed:             *seed,
			RequestsPerPhase: *requests,
			Workers:          *fleet,
		})
		if res != nil {
			res.Fprint(os.Stdout)
		}
		if err == nil && !res.RejoinOK {
			err = fmt.Errorf("re-added node did not warm-start from the shared store")
		}
		if err == nil && (res.Steady.Errors > 0 || res.Churn.Errors > 0) {
			err = fmt.Errorf("requests failed during the run")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "loadtest" {
		if err := runLoadtest(*serverURL, loadtest.Params{
			Seed:     *seed,
			Requests: *requests,
			RPS:      *rps,
			Fleet:    *fleet,
			Mix:      loadtest.Mix(*mix),
			Verify:   *verify,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
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

// runLoadtest drives the load-test harness against url, or against an
// in-process server on a loopback port when url is empty — the zero-setup
// path for benchmarking the serving stack on one machine.
func runLoadtest(url string, p loadtest.Params) error {
	if url == "" {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		defer ts.Close()
		url = ts.URL
		fmt.Printf("loadtest: started in-process server at %s\n", url)
	}
	res, err := loadtest.Run(context.Background(), client.New(url), p)
	if err != nil {
		return err
	}
	res.Fprint(os.Stdout)
	if res.Errors > 0 {
		return fmt.Errorf("%d requests failed with non-429 errors (first: %s)", res.Errors, res.FirstError)
	}
	if len(res.VerifyErrors) > 0 {
		return fmt.Errorf("%d served artifacts differ from local compiles", len(res.VerifyErrors))
	}
	return nil
}
