package mapping

import (
	"context"
	"errors"
	"testing"
	"time"

	"streammap/internal/pdg"
	"streammap/internal/topology"
)

func synthProblem(t *testing.T, nParts, gpus int) *Problem {
	t.Helper()
	work := make([]float64, nParts)
	var edges []pdg.Edge
	for i := range work {
		work[i] = float64((i*37)%211 + 40)
		if i > 0 {
			edges = append(edges, pdg.Edge{From: i - 1, To: i, Bytes: int64(50000 * (i%5 + 1))})
		}
	}
	g, err := pdg.Synthetic(len(work), edges, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{PDG: g, Topo: topology.PairedTree(gpus), FragmentIters: 4, TimesUS: partTimes(work, 4, 0)}
}

// TestSolveCtxMatchesSolve: with a live context the portfolio at eight
// workers must commit exactly the selection it commits at one.
func TestSolveCtxMatchesSolve(t *testing.T) {
	for _, nParts := range []int{6, 14, 30} {
		p := synthProblem(t, nParts, 4)
		// ILPMaxParts keeps the exact solver on the n=6 instance only;
		// n=14 and n=30 cover the local-search selection path.
		opts := Options{TimeBudget: 2 * time.Second, ILPMaxParts: 8, Workers: 1}
		serial, err := SolveCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 8
		par, err := SolveCtx(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if par.Objective != serial.Objective {
			t.Errorf("n=%d: portfolio objective %v != serial %v", nParts, par.Objective, serial.Objective)
		}
		if par.Method != serial.Method {
			t.Errorf("n=%d: portfolio method %q != serial %q", nParts, par.Method, serial.Method)
		}
		for i := range par.GPUOf {
			if par.GPUOf[i] != serial.GPUOf[i] {
				t.Fatalf("n=%d: assignment differs at partition %d", nParts, i)
			}
		}
	}
}

// TestSolveCtxCancelled: a solve whose context died returns the context's
// error, never the half-descended assignment the cancellation left behind.
func TestSolveCtxCancelled(t *testing.T) {
	p := synthProblem(t, 30, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := SolveCtx(ctx, p, Options{Workers: 4, TimeBudget: time.Second})
	if !errors.Is(err, context.Canceled) || a != nil {
		t.Fatalf("cancelled solve returned %v, %v; want nil, context.Canceled", a, err)
	}
}

// TestLPTBalances sanity-checks the longest-first balancing PrevWork places
// with: twelve unequal partitions reach all four GPUs.
func TestLPTBalances(t *testing.T) {
	p := synthProblem(t, 12, 4)
	used := map[int]bool{}
	for _, k := range PrevWork(p).GPUOf {
		used[k] = true
	}
	if len(used) != 4 {
		t.Errorf("LPT used %d of 4 GPUs", len(used))
	}
}
