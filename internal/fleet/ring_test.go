package fleet

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x|key-%d", i*2654435761, i)
	}
	return keys
}

func nodeNames(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://10.0.0.%d:8372", i+1)
	}
	return nodes
}

// TestRingBalance: with DefaultReplicas virtual nodes, the keyspace must
// split close to evenly at every fleet size in the static-peer regime.
// The bound is loose enough for hash variance (±35% of the fair share)
// but tight enough to catch a broken point hash or an unsorted ring,
// which skew ownership by integer factors.
func TestRingBalance(t *testing.T) {
	keys := testKeys(20000)
	for n := 3; n <= 16; n++ {
		r := NewRing(nodeNames(n), 0)
		counts := map[string]int{}
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d nodes own keys", n, len(counts))
		}
		fair := float64(len(keys)) / float64(n)
		for node, c := range counts {
			if ratio := float64(c) / fair; ratio < 0.65 || ratio > 1.35 {
				t.Errorf("n=%d: node %s owns %d keys, %.2fx its fair share %.0f",
					n, node, c, ratio, fair)
			}
		}
	}
}

// TestRingBoundedMovementOnLeave: removing one node must move exactly the
// keys it owned — every other key keeps its owner — and that is ~1/N of
// the keyspace.
func TestRingBoundedMovementOnLeave(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{3, 5, 8, 16} {
		nodes := nodeNames(n)
		before := NewRing(nodes, 0)
		leaver := nodes[n/2]
		after := NewRing(append(append([]string(nil), nodes[:n/2]...), nodes[n/2+1:]...), 0)
		moved := 0
		for _, k := range keys {
			was, is := before.Owner(k), after.Owner(k)
			if was != is {
				if was != leaver {
					t.Fatalf("n=%d: key %q moved %s -> %s though %s left", n, k, was, is, leaver)
				}
				moved++
			}
		}
		if frac, bound := float64(moved)/float64(len(keys)), 1.5/float64(n); frac > bound {
			t.Errorf("n=%d: leave moved %.1f%% of keys, want <= %.1f%%", n, frac*100, bound*100)
		}
	}
}

// TestRingBoundedMovementOnJoin: a joining node steals ~1/(N+1) of the
// keyspace, all of it for itself — no key moves between surviving nodes.
func TestRingBoundedMovementOnJoin(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{3, 5, 8, 15} {
		nodes := nodeNames(n + 1)
		before := NewRing(nodes[:n], 0)
		after := NewRing(nodes, 0)
		joiner := nodes[n]
		moved := 0
		for _, k := range keys {
			if was, is := before.Owner(k), after.Owner(k); was != is {
				if is != joiner {
					t.Fatalf("n=%d: key %q moved %s -> %s though only %s joined", n, k, was, is, joiner)
				}
				moved++
			}
		}
		if frac, bound := float64(moved)/float64(len(keys)), 1.5/float64(n+1); frac > bound {
			t.Errorf("n=%d: join moved %.1f%% of keys, want <= %.1f%%", n, frac*100, bound*100)
		}
	}
}

// TestRingDeterministicOwnership: ownership must be a pure function of the
// member set — invariant under input order (no map-iteration dependence)
// and reproducible across ring rebuilds, which is what lets every process
// in a fleet route without coordinating.
func TestRingDeterministicOwnership(t *testing.T) {
	nodes := nodeNames(7)
	keys := testKeys(5000)
	ref := NewRing(nodes, 0)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]string(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := NewRing(shuffled, 0)
		for _, k := range keys {
			if got, want := r.Owner(k), ref.Owner(k); got != want {
				t.Fatalf("trial %d: Owner(%q) = %s from shuffled input, want %s", trial, k, got, want)
			}
		}
	}
}

// TestRingEdgeCases: empty and single-node rings, duplicate members.
func TestRingEdgeCases(t *testing.T) {
	if got := NewRing(nil, 0).Owner("k"); got != "" {
		t.Errorf("empty ring owner = %q, want empty", got)
	}
	one := NewRing([]string{"a"}, 0)
	for _, k := range testKeys(100) {
		if one.Owner(k) != "a" {
			t.Fatalf("single-node ring routed %q elsewhere", k)
		}
	}
	dup := NewRing([]string{"a", "b", "a", "b"}, 0)
	if got := len(dup.Nodes()); got != 2 {
		t.Errorf("duplicated members yield %d nodes, want 2", got)
	}
}

// TestRingMovedFraction holds the merge to the movement a leave causes: a
// 1-of-4 leave moves about a quarter of the keyspace, and exactly the arcs
// the leaver owned, summed here from the old ring's points alone.
func TestRingMovedFraction(t *testing.T) {
	nodes := nodeNames(4)
	before := NewRing(nodes, 0)
	after := NewRing(nodes[:3], 0)
	frac := before.MovedFraction(after)
	if frac < 0.10 || frac > 0.40 {
		t.Errorf("moved fraction %.3f after 1-of-4 leave, want ~0.25", frac)
	}
	if self := before.MovedFraction(before); self != 0 {
		t.Errorf("ring moved %.3f of keys against itself", self)
	}

	for n := 2; n <= 5; n++ {
		for _, leaver := range nodeNames(n) {
			full := NewRing(nodeNames(n), 0)
			var rest []string
			for _, m := range nodeNames(n) {
				if m != leaver {
					rest = append(rest, m)
				}
			}
			// Point k owns the arc from point k-1 (exclusive) to itself;
			// point 0's arc wraps round from the last point.
			owned := new(big.Int)
			for k, p := range full.points {
				if p.node != leaver {
					continue
				}
				arc := new(big.Int).SetUint64(p.hash)
				if k > 0 {
					arc.Sub(arc, new(big.Int).SetUint64(full.points[k-1].hash))
				} else {
					arc.Add(arc, new(big.Int).Lsh(big.NewInt(1), 64))
					arc.Sub(arc, new(big.Int).SetUint64(full.points[len(full.points)-1].hash))
				}
				owned.Add(owned, arc)
			}
			want, _ := new(big.Float).Quo(new(big.Float).SetInt(owned), new(big.Float).SetMantExp(big.NewFloat(1), 64)).Float64()
			if got := full.MovedFraction(NewRing(rest, 0)); got != want {
				t.Errorf("%d nodes, %s leaves: moved %v, its arcs are %v of the keyspace", n, leaver, got, want)
			}
			if got := NewRing(rest, 0).MovedFraction(full); got != want {
				t.Errorf("%d nodes, %s joins: moved %v, its arcs are %v of the keyspace", n, leaver, got, want)
			}
		}
	}
	if got := NewRing([]string{"a"}, 0).MovedFraction(NewRing([]string{"b"}, 0)); got != 1 {
		t.Errorf("every key changed owners, moved %v", got)
	}
}
