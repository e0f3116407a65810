package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/sdf"
	"streammap/internal/server"
)

// replayReps is how often each layer call is repeated per key; the key's
// time is the median.
const replayReps = 3

// replayServe attributes a request's cost to layers from outside the
// daemon: after the window, for each distinct request of the workload, the
// benchmark itself calls each layer's public function on the same bytes —
// the calls the handler makes, in the handler's order — timing every call
// as a span under a per-key "replay" root. The daemon has been stopped;
// its cache dir still holds what it persisted, so the disk-hit path runs on
// the daemon's own files.
func replayServe(ctx context.Context, rec *recorder, res *result, e *serveEnv, recs []reqRecord) error {
	keys := e.checkSet(recs, res.Seed)

	layers := map[string][]float64{} // layer -> per-key median, microseconds
	var hitAllocs []float64
	for k, sc := range keys {
		perRep := map[string][]float64{}
		for rep := 0; rep < replayReps; rep++ {
			var err error
			reqID := -(k*replayReps + rep + 1) // negative: not a generator request
			root := rec.begin("replay", 0, reqID)
			step := func(name string, f func()) {
				if err == nil {
					perRep[name] = append(perRep[name], us(rec.timed(name, root, reqID, f)))
				}
			}

			var req server.CompileRequest
			var g *sdf.Graph
			var opts driver.Options
			var hash string
			step("server.body_decode", func() { err = json.Unmarshal(sc.body, &req) })
			step("sdf.import_graph", func() { g, err = sdf.ImportGraph(req.Graph) })
			step("driver.import_options", func() { opts, err = driver.ImportOptions(req.Options) })
			step("core.key", func() {
				var key string
				if key, err = core.KeyOf(g, opts); err == nil {
					hash = core.KeyHash(key)
				}
			})
			if err != nil {
				return fmt.Errorf("replay %s: %w", sc.name, err)
			}
			if hash != sc.hash {
				return fmt.Errorf("replay %s: request keys to %s, set-up keyed it %s", sc.name, hash, sc.hash)
			}
			// Also inside core.key and both hit paths; timed alone because
			// it is the O(graph) part of them.
			step("sdf.fingerprint", func() { g.Fingerprint() })

			// A fresh service over the daemon's cache dir: the first touch
			// is a disk-tier hit, the second a memory-tier hit.
			svc := core.NewService(core.ServiceConfig{CacheDir: e.cacheDir})
			var c *core.Compiled
			step("core.disk_hit", func() { c, err = svc.Compile(ctx, g, opts) })
			step("core.memory_hit", func() { c, err = svc.Compile(ctx, g, opts) })
			if err != nil {
				return fmt.Errorf("replay %s: %w", sc.name, err)
			}
			if st := svc.Stats(); st.DiskHits != 1 || st.Hits != 1 {
				return fmt.Errorf("replay %s: expected one disk and one memory hit, got %+v", sc.name, st)
			}
			if rep == 0 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				_, err = svc.Compile(ctx, g, opts)
				runtime.ReadMemStats(&m1)
				if err != nil {
					return fmt.Errorf("replay %s: %w", sc.name, err)
				}
				hitAllocs = append(hitAllocs, float64(m1.Mallocs-m0.Mallocs))
			}

			// What a disk hit does inside, and what answering costs when
			// the encoded bytes are not memoized, as separate calls.
			data, err := os.ReadFile(filepath.Join(e.cacheDir, sc.hash+".artifact.json"))
			if err != nil {
				return fmt.Errorf("replay %s: %w", sc.name, err)
			}
			var a *artifact.Artifact
			step("artifact.decode", func() { a, err = artifact.Decode(data) })
			step("driver.rehydrate", func() { _, err = driver.FromArtifact(g, a, opts) })
			step("driver.export_artifact", func() { a, err = c.Artifact() })
			step("artifact.encode", func() { _, err = a.Encode() })
			if err != nil {
				return fmt.Errorf("replay %s: %w", sc.name, err)
			}
			rec.end(root)
		}
		for name, v := range perRep {
			layers[name] = append(layers[name], median(v))
		}
	}

	for name, metricName := range map[string]string{
		"server.body_decode":     "server.body_decode_us",
		"sdf.import_graph":       "sdf.import_graph_us",
		"driver.import_options":  "driver.import_options_us",
		"core.key":               "core.key_us",
		"sdf.fingerprint":        "sdf.fingerprint_us",
		"core.disk_hit":          "core.disk_hit_us",
		"core.memory_hit":        "core.memory_hit_us",
		"artifact.decode":        "artifact.decode_us",
		"driver.rehydrate":       "driver.rehydrate_us",
		"driver.export_artifact": "driver.export_artifact_us",
		"artifact.encode":        "artifact.encode_us",
	} {
		res.setN(metricName, mean(layers[name]), len(layers[name]), "mean over keys of the median of 3")
	}
	res.setN("core.memory_hit_allocs", mean(hitAllocs), len(hitAllocs), "")
	return nil
}
