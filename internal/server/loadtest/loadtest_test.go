package loadtest_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"streammap/internal/obs"
	"streammap/internal/server"
	"streammap/internal/server/client"
	"streammap/internal/server/loadtest"
)

// TestReportDeterministic pins the report format: Fprint over a fully
// populated Result must render byte-for-byte the same text, so report
// diffs in CI mean the numbers moved, not the formatting.
func TestReportDeterministic(t *testing.T) {
	res := &loadtest.Result{
		Params: loadtest.Params{
			Seed: 0xBEEF, Requests: 40, Fleet: 8, Mix: loadtest.MixNodeLoss, RPS: 50,
		},
		Sent: 40, OK: 38, Throttled: 1, Errors: 1, Unique: 5,
		Duration: 2 * time.Second, AchievedRPS: 20,
		P50MS: 1.5, P95MS: 3.25, P99MS: 9,
		Remaps: 12, RemapOK: 12,
		FirstError:   "remap: boom",
		VerifyErrors: []string{"scenario 3: served artifact differs: objective"},
	}
	var buf bytes.Buffer
	res.Fprint(&buf)
	want := `loadtest: mix=nodeloss requests=40 fleet=8 target-rps=50 seed=0xbeef
  sent 40 in 2.00s (20.0 req/s): 38 ok, 1 throttled, 1 errors, 5 unique graphs
  latency p50 1.50ms  p95 3.25ms  p99 9.00ms
  nodeloss: 12 remaps issued after device failure, 12 valid degraded plans
  first error: remap: boom
  VERIFY FAIL: scenario 3: served artifact differs: objective
`
	if got := buf.String(); got != want {
		t.Errorf("report drifted:\n got: %q\nwant: %q", got, want)
	}

	// A clean non-nodeloss report must not mention remaps at all.
	quiet := &loadtest.Result{
		Params: loadtest.Params{Seed: 1, Requests: 10, Fleet: 2, Mix: loadtest.MixHot},
		Sent:   10, OK: 10, Unique: 3,
		Duration: time.Second, AchievedRPS: 10,
	}
	buf.Reset()
	quiet.Fprint(&buf)
	want = `loadtest: mix=hot requests=10 fleet=2 target-rps=0 seed=0x1
  sent 10 in 1.00s (10.0 req/s): 10 ok, 0 throttled, 0 errors, 3 unique graphs
  latency p50 0.00ms  p95 0.00ms  p99 0.00ms
`
	if got := buf.String(); got != want {
		t.Errorf("quiet report drifted:\n got: %q\nwant: %q", got, want)
	}

	// The server and engine lines are this run's: the delta of the two
	// scrapes, not the totals of a daemon that served other runs before.
	quiet.MetricsBefore = obs.Samples{
		"streammap_cache_misses_total": 7, `streammap_cache_hits_total{tier="memory"}`: 90,
		"streammap_engine_queries_total": 1000, "streammap_engine_misses_total": 400,
	}
	quiet.MetricsAfter = obs.Samples{
		"streammap_cache_misses_total": 10, `streammap_cache_hits_total{tier="memory"}`: 97, "streammap_coalesced_total": 1,
		"streammap_engine_queries_total": 1500, "streammap_engine_misses_total": 450,
	}
	buf.Reset()
	quiet.Fprint(&buf)
	want += `  server: +3 compiles, +7 memory hits, +0 disk hits, +1 coalesced, +0 rejected
  engine: 500 queries at 90.0% hit rate
  metrics (server-side, this run):
`
	if got := buf.String(); got != want {
		t.Errorf("report over two scrapes drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestNodeLossMix is the degraded-serving acceptance run: hot traffic
// against a live server, a device failure halfway through, and every
// compile served after the failure re-targeted through /v1/remap. No
// request — compile or remap, in flight at the failure or after it — may
// fail, every remap must come back a valid plan for the smaller machine
// with remap provenance, and the server's stage histogram must show no
// partition or map pass beyond the run's fresh compiles.
func TestNodeLossMix(t *testing.T) {
	if testing.Short() {
		t.Skip("node-loss load test skipped in -short mode")
	}
	srv := server.New(server.Config{MaxQueue: 512})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := loadtest.Run(context.Background(), client.New(ts.URL), loadtest.Params{
		Seed:       0xFA11,
		Requests:   60,
		Fleet:      12,
		Mix:        loadtest.MixNodeLoss,
		HotKeys:    4,
		MaxFilters: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res.Fprint(&out)
	t.Logf("\n%s", out.String())

	if res.Errors > 0 {
		t.Errorf("%d requests failed after the device loss (first: %s); every request must still get a valid plan",
			res.Errors, res.FirstError)
	}
	if res.OK+res.Throttled != res.Sent {
		t.Errorf("accounting: %d ok + %d throttled != %d sent", res.OK, res.Throttled, res.Sent)
	}
	if res.Remaps == 0 {
		t.Fatal("the device failure produced no remap traffic; the seed's hot set must contain multi-GPU scenarios")
	}
	if res.RemapOK != res.Remaps {
		t.Errorf("only %d of %d remaps returned a valid degraded plan", res.RemapOK, res.Remaps)
	}
	m := srv.Metrics()
	remaps, _ := m.Get("streammap_http_requests_total", obs.Label{Key: "route", Value: "remap"})
	compiles, _ := m.Get("streammap_http_requests_total", obs.Label{Key: "route", Value: "compile"})
	if int(remaps) != res.Remaps {
		t.Errorf("server counted %g remap requests, clients issued %d", remaps, res.Remaps)
	}
	if int(compiles+remaps) != res.Sent+res.Remaps {
		t.Errorf("server counted %g requests for %d compiles + %d remaps", compiles+remaps, res.Sent, res.Remaps)
	}
}

// TestChaosMix is the fault-injection acceptance run: a three-node fleet
// under a pinned seeded fault schedule (peer refusals, latency, corrupted
// and truncated peer bodies, torn/corrupted/ENOSPC writes, skewed
// clocks), plus a mid-run crash that tears the victim's disk tier and
// half the shared store before restarting it on the same directories.
// The bar: every response is a 200 or a 429, every 200's body is byte for
// byte the reference encoding RunChaos compiled cleanly for its key — ten
// or so independent compiles across three nodes, one encoding — and the
// run must prove faults
// actually fired and torn entries were actually quarantined — "zero
// errors" under silence would test nothing.
func TestChaosMix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load test skipped in -short mode")
	}
	res, err := loadtest.RunChaos(context.Background(), loadtest.ChaosParams{
		Seed:             0xC4A0,
		HotKeys:          6,
		RequestsPerPhase: 50,
		MaxFilters:       12,
		Dir:              t.TempDir(),
	})
	var out bytes.Buffer
	if res != nil {
		res.Fprint(&out)
		t.Logf("\n%s", out.String())
	}
	if err != nil {
		t.Fatal(err)
	}

	if !res.Availability() {
		t.Errorf("non-429 errors under chaos (warmup %d, chaos %d, aftermath %d; first: %s%s%s)",
			res.Warmup.Errors, res.Chaos.Errors, res.Aftermath.Errors,
			res.Warmup.FirstError, res.Chaos.FirstError, res.Aftermath.FirstError)
	}
	if len(res.EquivalenceFailures) > 0 {
		t.Errorf("%d served artifacts differ from clean local compiles (first: %s)",
			len(res.EquivalenceFailures), res.EquivalenceFailures[0])
	}
	for _, ph := range []loadtest.ChaosPhase{res.Warmup, res.Chaos, res.Aftermath} {
		if ph.OK+ph.Throttled+ph.Errors != ph.Requests {
			t.Errorf("%s accounting: %d ok + %d throttled + %d errors != %d requests",
				ph.Name, ph.OK, ph.Throttled, ph.Errors, ph.Requests)
		}
	}
	if res.Faults.Total() == 0 {
		t.Error("the fault schedule fired nothing; the run proved nothing")
	}
	// Both fault classes must have fired: peer-transport faults (which the
	// breaker, retries and hash verification absorb) and write faults
	// (which the atomic write recipe and quarantine absorb). Individual
	// kinds within a class may draw zero on a quiet run — the number of
	// seam calls depends on cache state and timing even though each site's
	// schedule is pinned.
	if peer := res.Faults.Refused + res.Faults.Delayed + res.Faults.Corrupted + res.Faults.Truncated; peer == 0 {
		t.Error("no peer-transport fault fired; the fleet hardening went untested")
	}
	if write := res.Faults.Torn + res.Faults.BadFiles + res.Faults.NoSpace; write == 0 {
		t.Error("no write fault fired; the durability hardening went untested")
	}
	if res.TruncatedDisk+res.TruncatedStore == 0 {
		t.Error("the crash phase tore no persistent entries; the quarantine path went untested")
	}
	if res.Quarantined == 0 {
		t.Error("no entry was quarantined despite torn files; corrupt bytes were served or silently overwritten")
	}
}

// TestMultiNodeChurn is the fleet-serving acceptance run: three nodes,
// one ring, one shared store. After warm-up no known-key request may
// compile anywhere; killing one of three nodes must not move the
// fleet-wide hit rate by more than 10 points; and the killed node,
// re-added with empty caches, must warm-start its first owned-key
// request from the shared store.
func TestMultiNodeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node load test skipped in -short mode")
	}
	res, err := loadtest.RunMultiNode(context.Background(), loadtest.MultiNodeParams{
		Seed:             0xF1EE7,
		HotKeys:          8,
		RequestsPerPhase: 60,
		MaxFilters:       12,
		Dir:              t.TempDir(),
	})
	var out bytes.Buffer
	if res != nil {
		res.Fprint(&out)
		t.Logf("\n%s", out.String())
	}
	if err != nil {
		t.Fatal(err)
	}

	if res.Steady.Errors > 0 || res.Churn.Errors > 0 {
		t.Errorf("requests failed (steady: %d, churn: %d; first: %s%s)",
			res.Steady.Errors, res.Churn.Errors, res.Steady.FirstError, res.Churn.FirstError)
	}
	if res.Steady.Compiles != 0 {
		t.Errorf("steady phase ran %d pipeline compiles for known keys; the fleet cache must absorb all of them", res.Steady.Compiles)
	}
	if drop := res.Steady.HitRate - res.Churn.HitRate; drop > 0.10 {
		t.Errorf("hit rate dropped %.1f points after losing 1 of %d nodes (steady %.1f%%, churn %.1f%%); must stay within 10",
			drop*100, res.Params.Nodes, res.Steady.HitRate*100, res.Churn.HitRate*100)
	}
	if !res.RejoinOK {
		t.Errorf("re-added node did not warm-start from the shared store (store hits %d, compiles %d)",
			res.RejoinStoreHits, res.RejoinCompiles)
	}
	var killed int
	for _, n := range res.Nodes {
		if n.Killed {
			killed++
		}
	}
	if killed != 1 {
		t.Errorf("expected exactly one killed+re-added node, got %d", killed)
	}
}
