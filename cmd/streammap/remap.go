package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/gpusim"
	"streammap/internal/topology"
)

// runRemap decodes an artifact file, applies the degradation described by
// the -drop-gpus/-throttle flags to its embedded topology, re-targets the
// compilation onto the surviving machine through driver.Remap's warm path,
// and reports the degraded plan's simulated execution. When outPath names
// a file, the remapped artifact is written there, ready for -exec or for
// feeding back through streammapd.
func runRemap(path, dropGPUs, throttles string, fragments int, outPath string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	a, err := artifact.Decode(data)
	if err != nil {
		return err
	}
	d, err := parseDegradation(dropGPUs, throttles)
	if err != nil {
		return err
	}
	degraded, gpuMap, err := driver.Degrade(a, d)
	if err != nil {
		return err
	}
	c, err := driver.Remap(context.Background(), a, degraded, driver.RemapOptions{GPUMap: gpuMap})
	if err != nil {
		return err
	}

	fmt.Printf("remap %s: graph %s (fingerprint %016x)\n", path, a.Graph.Name, a.Fingerprint)
	fmt.Printf("  gpus %d -> %d, %d partitions, objective %.1f -> %.1f us\n",
		len(a.Options.Topo.GPUNodes), degraded.NumGPUs(), len(c.Parts.Parts),
		a.Assignment.Objective, c.Assign.Objective)
	for _, s := range c.Stages {
		fmt.Printf("  stage %-11s %8.2f ms  %s\n", s.Name, float64(s.Duration.Microseconds())/1e3, s.Info)
	}
	res, err := gpusim.RunTiming(c.Plan, fragments)
	if err != nil {
		return err
	}
	fmt.Printf("  fragments: %d, makespan %.1f us, steady state %.2f us/fragment\n",
		fragments, res.MakespanUS, res.PerFragmentUS)
	printGPUBusy(res)

	if outPath != "" && outPath != "-" {
		ra, err := c.Artifact()
		if err != nil {
			return err
		}
		out, err := ra.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("  remapped artifact written to %s\n", outPath)
	}
	return nil
}

// parseDegradation builds a topology.Degradation from the CLI's flag
// syntax: -drop-gpus "2,3" and -throttle "node:bandwidthGBs:latencyUS"
// entries, where "-" in a throttle field keeps the link's current value.
func parseDegradation(dropGPUs, throttles string) (topology.Degradation, error) {
	var d topology.Degradation
	if dropGPUs != "" {
		for _, f := range strings.Split(dropGPUs, ",") {
			gi, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return d, fmt.Errorf("-drop-gpus %q: %w", f, err)
			}
			d.RemoveGPUs = append(d.RemoveGPUs, gi)
		}
	}
	if throttles != "" {
		for _, spec := range strings.Split(throttles, ",") {
			parts := strings.Split(strings.TrimSpace(spec), ":")
			if len(parts) != 3 {
				return d, fmt.Errorf(`-throttle %q: want "node:bandwidthGBs:latencyUS" ("-" keeps a value)`, spec)
			}
			node, err := strconv.Atoi(parts[0])
			if err != nil {
				return d, fmt.Errorf("-throttle %q: node: %w", spec, err)
			}
			th := topology.Throttle{Node: node, LatencyUS: -1}
			if parts[1] != "-" {
				if th.BandwidthGBs, err = strconv.ParseFloat(parts[1], 64); err != nil {
					return d, fmt.Errorf("-throttle %q: bandwidth: %w", spec, err)
				}
			}
			if parts[2] != "-" {
				if th.LatencyUS, err = strconv.ParseFloat(parts[2], 64); err != nil {
					return d, fmt.Errorf("-throttle %q: latency: %w", spec, err)
				}
			}
			d.Throttles = append(d.Throttles, th)
		}
	}
	if len(d.RemoveGPUs) == 0 && len(d.Throttles) == 0 {
		return d, fmt.Errorf("nothing to degrade: give -drop-gpus and/or -throttle")
	}
	return d, nil
}
