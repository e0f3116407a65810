// Command streammapd is the compile daemon: it serves the mapping
// compiler over HTTP, fronting a tiered compile cache (memory + disk +
// optional shared store) with admission control and request coalescing.
// Several daemons given each other's addresses serve as one fleet-wide
// cache over a consistent-hash ring.
//
// Usage:
//
//	streammapd [-addr 127.0.0.1:8372] [-cache-dir DIR] [-cache-entries N]
//	           [-max-inflight N] [-max-queue N] [-timeout 60s]
//	           [-compile-workers N] [-drain-timeout 15s] [-port-file FILE]
//	           [-self-url URL] [-peers URL,URL,...] [-store-dir DIR]
//	           [-fault-spec SPEC]
//	           [-log-level info] [-log-format text] [-debug-addr ADDR]
//
// Endpoints:
//
//	POST /v1/compile    graph spec + options -> versioned artifact encoding
//	POST /v1/remap      artifact + degradation -> re-targeted artifact
//	GET  /healthz       liveness (503 while draining; fleet peer states)
//	GET  /metrics       every counter and latency histogram of the node,
//	                    Prometheus text exposition (see DESIGN.md S19)
//	GET  /debug/traces  recent + slowest request traces as JSON
//
// -addr with port 0 binds an ephemeral port; the bound address is logged
// and, with -port-file, written to a file (for scripts and CI). On
// SIGTERM/SIGINT the daemon drains: /healthz flips to 503, new compiles
// are refused, and in-flight requests, compilations that outlived their
// request and artifacts still being written to the persistent tiers get
// -drain-timeout to finish.
//
// Fleet mode: give every daemon the same -peers list (each member's
// advertised base URL) and its own entry as -self-url, and the processes
// serve as one consistent-hash cache — a request landing on any node is
// answered from the fleet's caches wherever the key lives. -store-dir
// points every node at one shared content-addressed artifact directory
// (NFS or any shared mount), which also warm-starts nodes that join
// later. A node that does not own a key answers it from its own caches
// or proxies the request one hop to the owner. See DESIGN.md S17.
//
// Example (3-node fleet on one host):
//
//	PEERS=http://127.0.0.1:8471,http://127.0.0.1:8472,http://127.0.0.1:8473
//	for p in 8471 8472 8473; do
//	  streammapd -addr 127.0.0.1:$p -self-url http://127.0.0.1:$p \
//	             -peers "$PEERS" -store-dir /var/cache/streammap-fleet &
//	done
//
// Example:
//
//	streammapd -addr 127.0.0.1:0 -cache-dir /var/cache/streammap -port-file /tmp/port &
//	curl -fsS "http://$(cat /tmp/port)/healthz"
//
// Chaos tier: -fault-spec threads deterministic, seeded fault injection
// through the daemon's peer transport, disk tier, shared store and
// membership clocks — for staging-environment chaos testing, never
// production. The spec is comma-separated key=value pairs, e.g.
//
//	streammapd ... -fault-spec 'seed=7,peer-refuse=0.1,latency=50ms:0.2,torn-write=0.1,skew=300ms'
//
// (keys: seed, peer-refuse, latency, corrupt, truncate, torn-write,
// corrupt-file, enospc, skew). An empty spec injects nothing and costs
// nothing. At shutdown the daemon logs one "faults injected" line with the
// counts of what fired. See DESIGN.md S18.
//
// Observability: -log-level (debug|info|warn|error) and -log-format
// (text|json) shape the structured log on stderr; debug level logs one
// line per request with its trace ID. -debug-addr starts a second
// listener serving net/http/pprof — separate from the service port so
// profiling is never exposed where compile traffic is.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streammap/internal/core"
	"streammap/internal/faultinject"
	"streammap/internal/fleet"
	"streammap/internal/obs"
	"streammap/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (port 0 = ephemeral)")
	cacheDir := flag.String("cache-dir", "", "disk tier for compiled artifacts (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory result cache entries (default 256)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent compiles (default GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "queued requests before 429 (default 4x max-inflight)")
	timeout := flag.Duration("timeout", 0, "per-request compile deadline (default 60s)")
	compileWorkers := flag.Int("compile-workers", 0, "worker pool per compilation (default GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests and pending cache writes on shutdown")
	portFile := flag.String("port-file", "", "write the bound host:port to this file once listening")
	selfURL := flag.String("self-url", "", "fleet: this node's advertised base URL (required with -peers)")
	peers := flag.String("peers", "", "fleet: comma-separated base URLs of every member, self included")
	storeDir := flag.String("store-dir", "", "shared content-addressed artifact store directory (fleet warm starts)")
	faultSpec := flag.String("fault-spec", "", "chaos tier: seeded fault-injection spec, e.g. 'seed=7,peer-refuse=0.1,torn-write=0.1' (empty = no injection)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error (debug logs every request with its trace ID)")
	logFormat := flag.String("log-format", "text", "log encoding on stderr: text or json")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = no profiling listener)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatalf("streammapd: %v", err)
	}
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	spec, err := faultinject.Parse(*faultSpec)
	if err != nil {
		fatalf("-fault-spec: %v", err)
	}
	faults := faultinject.New(spec)
	if faults != nil {
		logger.Warn("CHAOS TIER ACTIVE: injecting faults — not for production", "spec", spec.String())
	}

	svcCfg := core.ServiceConfig{
		MaxEntries:    *cacheEntries,
		MaxConcurrent: *maxInFlight,
		MaxQueue:      *maxQueue,
		CacheDir:      *cacheDir,
		Faults:        faults,
		Logger:        logger,
	}
	if *storeDir != "" {
		svcCfg.Shared = fleet.NewDirStore(*storeDir).WithFaults(faults)
	}
	var fleetCfg fleet.Config
	if *peers != "" {
		if *selfURL == "" {
			fatalf("-peers requires -self-url (this node's own entry in the list)")
		}
		fleetCfg = fleet.Config{
			SelfURL: *selfURL,
			Peers:   strings.Split(*peers, ","),
		}
		if !fleetCfg.Enabled() {
			fatalf("-peers must name at least one member besides -self-url")
		}
	}

	srv := server.New(server.Config{
		Service:        svcCfg,
		RequestTimeout: *timeout,
		CompileWorkers: *compileWorkers,
		Fleet:          fleetCfg,
	})
	if fleetCfg.Enabled() {
		logger.Info("fleet member joining", "self", *selfURL, "peers", len(fleetCfg.Peers))
	}

	if *debugAddr != "" {
		// pprof gets its own listener: http.DefaultServeMux carries the
		// /debug/pprof handlers registered by the blank import, and nothing
		// else in this process registers on the default mux.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("listen -debug-addr %s: %v", *debugAddr, err)
		}
		logger.Info("pprof listening", "addr", dln.Addr().String())
		go func() {
			dbg := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := dbg.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	logger.Info("listening", "addr", bound)
	if *portFile != "" {
		// Write-then-rename so a polling script never reads a partial file.
		tmp := *portFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound), 0o644); err != nil {
			fatalf("port file: %v", err)
		}
		if err := os.Rename(tmp, *portFile); err != nil {
			fatalf("port file: %v", err)
		}
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "grace", drainTimeout.String())
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("drain incomplete", "err", err)
			os.Exit(1)
		}
		err := srv.Close(ctx)
		if faults != nil {
			// What the chaos tier fired over the daemon's life, background
			// writes included.
			logger.Warn("faults injected", "stats", faults.Stats())
		}
		if err != nil {
			os.Exit(1) // Close logged what was abandoned
		}
		m := srv.Metrics() // keyed by series as /metrics spells them
		n := func(series string) int64 { return int64(m[series]) }
		logger.Info("drained cleanly",
			"requests", n(`streammap_http_requests_total{route="compile"}`)+n(`streammap_http_requests_total{route="remap"}`),
			"compiles", n("streammap_cache_misses_total"),
			"cacheHits", n(`streammap_cache_hits_total{tier="memory"}`)+n(`streammap_cache_hits_total{tier="disk"}`),
			"coalesced", n("streammap_coalesced_total"), "rejected", n("streammap_rejected_total"))
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatalf("serve: %v", err)
		}
	}
	fmt.Println("streammapd: bye")
}
