// Package fleet turns N streammapd processes into one logical compile
// cache. It has three parts, deliberately dependency-free so both the
// serving layer and the core cache can build on it:
//
//   - Ring: a consistent-hash ring over node names. Every process in the
//     fleet that is handed the same member list builds bit-identical
//     rings, so ownership of a cache key is a pure function of (members,
//     key) — no coordination, no leader. Membership change moves only the
//     keys it must: a join steals ~1/(N+1) of the keyspace, a leave
//     reassigns exactly the leaver's arcs.
//
//   - Store: the shared content-addressed backing store interface, with a
//     local-directory implementation (DirStore) using the same atomic
//     write-rename discipline as the service's disk cache tier. A fleet
//     pointed at one DirStore (shared filesystem) warm-starts new nodes
//     from every compile the fleet has ever finished.
//
//   - Membership: the static peer set plus each peer's health. Peers are
//     configured up front (-peers); gossip is out of scope. Each peer has
//     a circuit: consecutive failed proxied requests open it, which
//     routes around the peer for a cooldown; then it is revived and
//     probed once. Every alive-set transition rebuilds the ring and the
//     moved keyspace fraction is tracked as the ring_moves counter.
//
// See DESIGN.md S17.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// DefaultReplicas is the default number of virtual nodes per member. 128
// points per node keeps the keyspace arcs within a few percent of uniform
// up to fleet sizes far beyond the static-peer regime this package
// targets, at a ring-build cost of sorting N*128 points.
const DefaultReplicas = 128

// point is one virtual node: a position on the 64-bit ring and the member
// that owns the arc ending there.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a set of node names.
// Build with NewRing; ownership queries are lock-free. Two rings built
// from the same member set (in any order) are identical, including across
// processes: the point hash is SHA-256, never Go's randomized map or
// string hash.
type Ring struct {
	points []point
	nodes  []string // sorted, deduplicated member list
}

// NewRing builds a ring over nodes with the given number of virtual nodes
// per member (DefaultReplicas when replicas <= 0). Duplicate names
// collapse; input order is irrelevant. A nil or empty node list yields a
// ring whose Owner is always "".
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := append([]string(nil), nodes...)
	sort.Strings(uniq)
	uniq = slices.Compact(uniq)
	r := &Ring{
		points: make([]point, 0, len(uniq)*replicas),
		nodes:  uniq,
	}
	for _, n := range uniq {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{hash: pointHash(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// SHA-256 collisions on 64 bits are vanishingly rare but must not
		// make ownership depend on sort stability: break ties by name.
		return a.node < b.node
	})
	return r
}

// Nodes returns the ring's member list, sorted. The caller must not
// mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the member owning key — the node of the first ring point
// at or clockwise-after the key's hash — or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyPointHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last
	}
	return r.points[i].node
}

// MovedFraction is the exact fraction of the keyspace whose owner differs
// between r and other: one merge over both rings' sorted points, summing
// the arcs whose owners differ, over 2^64. Consistent hashing bounds it to
// ~1/N per single membership change; the Membership layer accumulates it
// as the ring_moves stat.
func (r *Ring) MovedFraction(other *Ring) float64 {
	a, b := r.points, other.points
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0
		}
		return 1 // every key's owner is "" on one side only
	}
	// The moved arc lengths sum to at most 2^64, one past uint64: carry
	// counts the overflow.
	var moved, carry uint64
	add := func(n uint64) {
		var c uint64
		moved, c = bits.Add64(moved, n, 0)
		carry += c
	}
	// The wrap arc, past the last point of either ring and round to the
	// first, belongs to each ring's first point. Its length is first-last
	// modulo 2^64, except that one shared position makes it the whole
	// circle.
	first := min(a[0].hash, b[0].hash)
	last := max(a[len(a)-1].hash, b[len(b)-1].hash)
	if a[0].node != b[0].node {
		if first == last {
			return 1
		}
		add(first - last)
	}
	// Every other arc runs from one point of either ring to the next; in
	// each ring its owner is that ring's first point at or after the arc's
	// end (the first point on a wrap).
	prev := first
	for i, j := 0, 0; ; {
		for i < len(a) && a[i].hash <= prev {
			i++
		}
		for j < len(b) && b[j].hash <= prev {
			j++
		}
		if i == len(a) && j == len(b) {
			break
		}
		next, ownA, ownB := uint64(math.MaxUint64), a[0].node, b[0].node
		if i < len(a) {
			next, ownA = a[i].hash, a[i].node
		}
		if j < len(b) {
			next, ownB = min(next, b[j].hash), b[j].node
		}
		if ownA != ownB {
			add(next - prev)
		}
		prev = next
	}
	return float64(carry) + math.Ldexp(float64(moved), -64)
}

// pointHash places virtual node v of a member on the ring.
func pointHash(node string, v int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", node, v)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPointHash places a cache key on the ring. The key is typically
// already a content hash (core.KeyHash), but hashing again costs little
// and keeps ring placement well-distributed for arbitrary key strings.
func keyPointHash(key string) uint64 {
	sum := sha256.Sum256([]byte("key|" + key))
	return binary.BigEndian.Uint64(sum[:8])
}
