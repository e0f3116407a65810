package loadtest_test

import (
	"bytes"
	"context"
	"testing"

	"streammap/internal/server/loadtest"
)

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
