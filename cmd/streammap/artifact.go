package main

import (
	"encoding/json"
	"fmt"
	"os"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/gpusim"
	"streammap/internal/sdf"
	"streammap/internal/server"
)

// emitArtifact encodes the compilation and writes it to path.
func emitArtifact(c *driver.Compiled, path string) error {
	a, err := c.Artifact()
	if err != nil {
		return err
	}
	data, err := a.Encode()
	if err != nil {
		return err
	}
	return writeOut(data, path)
}

// emitRequest writes the streammapd wire request for compiling g under
// opts — the body to POST to /v1/compile, as json.Marshal writes it, so the
// daemon reads it on its fast path — without compiling anything locally.
func emitRequest(g *sdf.Graph, opts driver.Options, path string) error {
	data, err := json.Marshal(server.NewRequest(g, opts))
	if err != nil {
		return err
	}
	return writeOut(data, path)
}

// writeOut writes data to path ("-" or empty means stdout).
func writeOut(data []byte, path string) error {
	if path == "" || path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runExec decodes an artifact file, rehydrates it over the structural twin
// embedded in the artifact (driver.Rehydrate) and runs the timing
// simulation — no compilation pass runs.
func runExec(path string, fragments int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	a, err := artifact.Decode(data)
	if err != nil {
		return err
	}
	c, err := driver.Rehydrate(a)
	if err != nil {
		return err
	}
	res, err := gpusim.RunTiming(c.Plan, fragments)
	if err != nil {
		return err
	}
	fmt.Printf("artifact %s: format v%d, graph %s (fingerprint %016x)\n",
		path, a.Format, a.Graph.Name, a.Fingerprint)
	fmt.Printf("  %s on %d GPUs, %d partitions, B=%d iterations/fragment, mapped by %s (Tmax %.1f us)\n",
		a.Options.Device.Name, len(a.Options.Topo.GPUNodes), len(a.Partitions),
		a.Options.FragmentIters, a.Assignment.Method, a.Assignment.Objective)
	fmt.Printf("  fragments: %d, makespan %.1f us, steady state %.2f us/fragment\n",
		fragments, res.MakespanUS, res.PerFragmentUS)
	printGPUBusy(res)
	return nil
}

// printGPUBusy renders the per-GPU utilization lines shared by the -exec
// and -emit run reports.
func printGPUBusy(res *gpusim.Result) {
	for gi, busy := range res.GPUBusyUS {
		fmt.Printf("  gpu%d busy: %.1f us (%.0f%%)\n", gi+1, busy, 100*busy/res.MakespanUS)
	}
}
