// Command streammap is the compiler driver: it maps a benchmark stream
// graph onto a simulated multi-GPU machine and emits a report, generated
// CUDA-like source, Graphviz, or a simulated execution.
//
// Usage:
//
//	streammap -app DES -n 8 -gpus 4 [-partitioner alg1|prev|single]
//	          [-mapper ilp|prev] [-emit report|cuda|dot|run|artifact]
//	          [-fragments 64] [-artifact-out file] [-stats]
//	streammap -exec file.artifact.json [-fragments 64]
//	streammap -remap file.artifact.json -drop-gpus "2,3" [-throttle "1:4:-"]
//	          [-fragments 64] [-artifact-out degraded.artifact.json]
//	streammap -synth 50 [-synth-seed S] [-synth-filters 28] [-synth-gpus 8]
//	          [-synth-check]
//
// -emit artifact serializes the compilation as a versioned, self-contained
// artifact (to -artifact-out, default stdout); -exec decodes such a file
// and executes it on the simulator without recompiling. -emit request
// writes the streammapd wire request (graph spec + options) for the same
// compilation without running it locally — POST it to /v1/compile and the
// response is the artifact.
//
// -remap decodes an artifact, removes the -drop-gpus devices and applies
// the -throttle link derates to its embedded topology, and re-targets the
// plan onto the surviving machine without recompiling (only the mapping
// re-runs, warm-started from the pre-failure assignment). The degraded
// plan is simulated and reported; with -artifact-out FILE the remapped
// artifact is also written out, ready for -exec or streammapd's
// /v1/remap.
//
// -stats prints, as one JSON line, the estimation engine's memo counters
// (queries, hits, misses, hit rate), the multilevel partitioner's counters
// when that path served the compile, and the per-stage wall-clock of the
// compilation before the emitted output.
//
// To serve compile requests over HTTP instead of compiling one-shot, run
// the streammapd daemon (cmd/streammapd).
//
// Synth mode compiles a seeded corpus of randomly generated stream graphs
// on randomly generated PCIe topologies through the compile service; with
// -synth-check every scenario also runs the differential harness (the
// pipeline at one worker vs. concurrent, plus structural invariants).
//
// Examples:
//
//	streammap -app FFT -n 256 -gpus 4 -emit report
//	streammap -app DES -n 8 -gpus 2 -emit cuda > des.cu
//	streammap -app DCT -n 14 -gpus 4 -emit run
//	streammap -app DES -n 8 -gpus 4 -emit artifact -artifact-out des.artifact.json
//	streammap -exec des.artifact.json -fragments 128
//	streammap -synth 100 -synth-seed 0xC0FFEE -synth-check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"streammap/internal/apps"
	"streammap/internal/codegen"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/gpu"
	"streammap/internal/gpusim"
	"streammap/internal/partition"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

func main() {
	appName := flag.String("app", "DES", "benchmark application: "+strings.Join(apps.Names(), ", "))
	n := flag.Int("n", 8, "application size parameter N")
	gpus := flag.Int("gpus", 4, "number of GPUs (PCIe tree per Figure 3.3)")
	partitioner := flag.String("partitioner", "alg1", "alg1 (paper), prev ([7], SM-only) or single (SPSG)")
	mapper := flag.String("mapper", "ilp", "ilp (communication-aware) or prev (workload-only, via host)")
	emit := flag.String("emit", "report", "report, cuda, dot, run, artifact or request (streammapd /v1/compile body)")
	artifactOut := flag.String("artifact-out", "-", `output file for -emit artifact/request ("-" = stdout) and -remap ("-" = don't write)`)
	execFile := flag.String("exec", "", "execute a previously emitted artifact file (no compilation)")
	remapFile := flag.String("remap", "", "remap a previously emitted artifact file onto a degraded topology (with -drop-gpus/-throttle)")
	dropGPUs := flag.String("drop-gpus", "", `comma-separated GPU indices lost to the degradation, e.g. "2,3" (with -remap)`)
	throttle := flag.String("throttle", "", `comma-separated link derates "node:bandwidthGBs:latencyUS", "-" keeps a value, e.g. "1:4:-" (with -remap)`)
	fragments := flag.Int("fragments", 64, "fragments for -emit run and -exec")
	device := flag.String("device", "m2090", "m2090 or c2070")
	synthN := flag.Int("synth", 0, "synth mode: compile this many generated scenarios through the compile service")
	synthSeed := flag.String("synth-seed", "1", "corpus seed for -synth (decimal or 0x hex)")
	synthFilters := flag.Int("synth-filters", 28, "max filters per generated graph in -synth mode")
	synthGPUs := flag.Int("synth-gpus", 8, "max GPUs per generated topology in -synth mode")
	synthCheck := flag.Bool("synth-check", false, "run the differential harness (one worker vs. concurrent) on every generated scenario")
	stats := flag.Bool("stats", false, "print estimation-engine cache counters, multilevel counters and per-stage timings as JSON after compiling")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nTo serve compile requests over HTTP (admission control, request\ncoalescing, two-tier artifact cache), run the streammapd daemon:\n\n\tstreammapd -addr 127.0.0.1:8372 -cache-dir /var/cache/streammap\n")
	}
	flag.Parse()

	if *execFile != "" {
		if err := runExec(*execFile, *fragments); err != nil {
			fail("exec: %v", err)
		}
		return
	}

	if *remapFile != "" {
		if err := runRemap(*remapFile, *dropGPUs, *throttle, *fragments, *artifactOut); err != nil {
			fail("remap: %v", err)
		}
		return
	}

	if *synthN > 0 {
		seed, err := parseSeed(*synthSeed)
		if err != nil {
			fail("synth: %v", err)
		}
		if err := runSynth(synthFlags{
			scenarios: *synthN,
			seed:      seed,
			filters:   *synthFilters,
			gpus:      *synthGPUs,
			check:     *synthCheck,
		}); err != nil {
			fail("synth: %v", err)
		}
		return
	}

	app, ok := apps.ByName(*appName)
	if !ok {
		fail("unknown app %q; available: %s", *appName, strings.Join(apps.Names(), ", "))
	}
	g, err := apps.BuildGraph(app, *n)
	if err != nil {
		fail("build: %v", err)
	}

	opts := driver.Options{Topo: topology.PairedTree(*gpus)}
	switch *device {
	case "m2090":
		opts.Device = gpu.M2090()
	case "c2070":
		opts.Device = gpu.C2070()
	default:
		fail("unknown device %q", *device)
	}
	switch *partitioner {
	case "alg1":
		opts.Partitioner = driver.Alg1
	case "prev":
		opts.Partitioner = driver.PrevWorkPart
	case "single":
		opts.Partitioner = driver.SinglePart
	default:
		fail("unknown partitioner %q", *partitioner)
	}
	switch *mapper {
	case "ilp":
		opts.Mapper = driver.ILPMapper
	case "prev":
		opts.Mapper = driver.PrevWorkMap
	default:
		fail("unknown mapper %q", *mapper)
	}

	if *emit == "request" {
		// A server request is the pre-compile half of an artifact; nothing
		// runs locally.
		if err := emitRequest(g, opts, *artifactOut); err != nil {
			fail("request: %v", err)
		}
		return
	}

	c, err := driver.Compile(context.Background(), g, opts)
	if err != nil {
		fail("compile: %v", err)
	}

	if *stats {
		if err := emitStats(c); err != nil {
			fail("stats: %v", err)
		}
	}

	switch *emit {
	case "report":
		fmt.Print(codegen.Report(c.Plan))
		fmt.Printf("  mapping objective (Tmax/fragment): %.1f us via %s\n",
			c.Assign.Objective, c.Assign.Method)
	case "cuda":
		src, err := codegen.CUDA(c.Plan)
		if err != nil {
			fail("codegen: %v", err)
		}
		fmt.Print(src)
	case "dot":
		fmt.Print(codegen.Dot(c.Plan))
	case "artifact":
		if err := emitArtifact(c, *artifactOut); err != nil {
			fail("artifact: %v", err)
		}
	case "run":
		in := make([]sdf.Token, c.InputNeed(0, *fragments))
		for i := range in {
			in[i] = sdf.Token(i % 16)
		}
		res, err := gpusim.Run(c.Plan, [][]sdf.Token{in}, *fragments)
		if err != nil {
			fail("run: %v", err)
		}
		fmt.Print(codegen.Report(c.Plan))
		fmt.Printf("  fragments: %d, makespan %.1f us, steady state %.2f us/fragment\n",
			*fragments, res.MakespanUS, res.PerFragmentUS)
		printGPUBusy(res)
		fmt.Printf("  output tokens: %d\n", len(res.Outputs[0]))
	default:
		fail("unknown emit mode %q", *emit)
	}
}

// emitStats prints the compilation's counters as one machine-readable
// JSON line: the estimation engine section (core.EngineStats), the
// multilevel partitioner's counters (omitted when the exact path ran), and
// the per-stage wall-clock (name, durationNS).
func emitStats(c *driver.Compiled) error {
	type stage struct {
		Name       string `json:"name"`
		DurationNS int64  `json:"durationNS"`
	}
	report := struct {
		Engine     core.EngineStats   `json:"engine"`
		Multilevel *partition.MLStats `json:"multilevel,omitempty"`
		Stages     []stage            `json:"stages"`
	}{Engine: core.EngineStatsOf(c.Estimates), Multilevel: c.Parts.ML}
	for _, s := range c.Stages {
		report.Stages = append(report.Stages, stage{Name: s.Name, DurationNS: s.Duration.Nanoseconds()})
	}
	data, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
