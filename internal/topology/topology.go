// Package topology models the PCI Express interconnect of a multi-GPU
// machine as a tree: GPUs are leaves, switches are internal nodes and the
// host/root complex is the root (the paper's Figure 3.3). Every tree edge is
// a full-duplex link modelled as two directed links (an uplink towards the
// root and a downlink away from it).
//
// The package implements the paper's §3.2.1 machinery: peer-to-peer routes
// through the lowest common ancestor, and dtlist(l) — the set of
// source-destination GPU pairs whose traffic crosses a given directed link —
// derived from the uplink rule "the load of an uplink l is contributed by
// the transfer from GPU i to GPU j iff i is a child of l and j is not".
package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Host is the endpoint index representing the host (CPU) in routes and
// transfer pairs.
const Host = -1

// Dir is a link direction.
type Dir int

const (
	// Up points towards the root (host).
	Up Dir = iota
	// Down points away from the root.
	Down
)

func (d Dir) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Link is one directed PCIe link. Child is the tree node at the lower (away
// from root) end; the upper end is that node's parent.
type Link struct {
	ID    int
	Child int // tree node index at the lower end
	Dir   Dir
}

// Pair is a source-destination endpoint pair; either may be Host.
type Pair struct {
	Src, Dst int
}

// Tree is an immutable PCIe tree. Construct with NewBuilder or one of the
// canned shapes, then query links, routes and dtlists.
type Tree struct {
	parent   []int    // per tree node; -1 for root
	name     []string // per tree node
	gpuNode  []int    // gpu index -> tree node
	gpuOf    []int    // tree node -> gpu index or -1
	links    []Link   // all directed links: 2*(numNodes-1)
	upLink   []int    // tree node -> uplink id (-1 for root)
	downLink []int    // tree node -> downlink id (-1 for root)

	// routes and hostRoutes are the precomputed Route/RouteViaHost tables
	// over all endpoint pairs (Host and every GPU), filled by finalize. The
	// mapper's exact evaluator calls Route per PDG edge per candidate
	// assignment, so routing must be a table lookup, not a tree walk.
	routes     [][]int // (src+1)*(NumGPUs()+1) + (dst+1) -> link ids
	hostRoutes [][]int // same index; the via-host staging of the pair

	// linkBW and linkLat, when non-nil, hold the effective per-directed-link
	// bandwidth (GB/s) and latency (µs), indexed by link id. They are nil on
	// homogeneous trees — the common case — so every consumer that reads the
	// parameters through LinkBandwidthGBs/LinkLatencyUS performs exactly the
	// arithmetic of the scalar fields when no link deviates. finalizeLinks
	// canonicalizes: a slice whose entries all equal the tree default is
	// dropped back to nil, so Key() and Export() have one form per machine.
	linkBW  []float64
	linkLat []float64

	BandwidthGBs float64 // default per-link per-direction bandwidth
	LatencyUS    float64 // default per-transfer initial latency
}

// LinkBandwidthGBs returns directed link l's bandwidth: the per-link
// override when the tree is heterogeneous, the tree default otherwise.
func (t *Tree) LinkBandwidthGBs(l int) float64 {
	if t.linkBW != nil {
		return t.linkBW[l]
	}
	return t.BandwidthGBs
}

// LinkLatencyUS returns directed link l's latency: the per-link override
// when the tree is heterogeneous, the tree default otherwise.
func (t *Tree) LinkLatencyUS(l int) float64 {
	if t.linkLat != nil {
		return t.linkLat[l]
	}
	return t.LatencyUS
}

// Heterogeneous reports whether any link deviates from the tree-level
// default parameters.
func (t *Tree) Heterogeneous() bool { return t.linkBW != nil || t.linkLat != nil }

// routeIdx flattens an endpoint pair (each Host or a GPU index) into the
// route-table index.
func (t *Tree) routeIdx(src, dst int) int {
	return (src+1)*(len(t.gpuNode)+1) + (dst + 1)
}

// Builder assembles a Tree. After Build returns, the builder is spent:
// further AddGPU/AddSwitch/SetLink calls panic instead of silently
// mutating the finalized, route-table-cached tree.
type Builder struct {
	t *Tree
	// nodeLink holds per-edge parameter overrides keyed by the child node
	// of the edge, applied to both directed links at Build time.
	nodeLink map[int][2]float64 // node -> {bandwidthGBs, latencyUS}
}

// NewBuilder starts a tree with only the host root node.
// Default link parameters model PCIe 2.0 x16: 8 GB/s per direction, 10 µs
// initial latency.
func NewBuilder() *Builder {
	t := &Tree{
		parent:       []int{-1},
		name:         []string{"host"},
		BandwidthGBs: 8,
		LatencyUS:    10,
	}
	return &Builder{t: t}
}

// SetLink overrides the default per-direction bandwidth (GB/s) and latency
// (µs) applied to every link without a per-link override.
func (b *Builder) SetLink(bandwidthGBs, latencyUS float64) *Builder {
	b.live()
	b.t.BandwidthGBs = bandwidthGBs
	b.t.LatencyUS = latencyUS
	return b
}

// SetNodeLink overrides the parameters of the tree edge above node — both
// its directed links — making the tree heterogeneous. The values replace
// the tree defaults for that edge; Build validates them (bandwidth must be
// positive, latency non-negative).
func (b *Builder) SetNodeLink(node int, bandwidthGBs, latencyUS float64) *Builder {
	b.live()
	if node <= 0 || node >= len(b.t.parent) {
		panic(fmt.Sprintf("topology: SetNodeLink: node %d has no parent link", node))
	}
	if b.nodeLink == nil {
		b.nodeLink = map[int][2]float64{}
	}
	b.nodeLink[node] = [2]float64{bandwidthGBs, latencyUS}
	return b
}

// live panics when the builder has already built its tree.
func (b *Builder) live() {
	if b.t == nil {
		panic("topology: builder used after Build")
	}
}

// Root returns the host node index (always 0).
func (b *Builder) Root() int { return 0 }

// AddSwitch attaches a PCIe switch under parent and returns its node index.
func (b *Builder) AddSwitch(parent int, name string) int {
	return b.addNode(parent, name)
}

// AddGPU attaches a GPU leaf under parent and returns its GPU index
// (0-based, dense).
func (b *Builder) AddGPU(parent int) int {
	gi := len(b.t.gpuNode)
	n := b.addNode(parent, fmt.Sprintf("gpu%d", gi+1))
	b.t.gpuNode = append(b.t.gpuNode, n)
	return gi
}

func (b *Builder) addNode(parent int, name string) int {
	b.live()
	if parent < 0 || parent >= len(b.t.parent) {
		panic(fmt.Sprintf("topology: bad parent %d", parent))
	}
	id := len(b.t.parent)
	b.t.parent = append(b.t.parent, parent)
	b.t.name = append(b.t.name, name)
	return id
}

// Build finalizes and validates the tree. The builder's alias to the tree
// is severed first: once a tree's route tables exist (and may already sit
// behind cache keys), no builder method can mutate it.
func (b *Builder) Build() (*Tree, error) {
	b.live()
	t := b.t
	b.t = nil
	if len(t.gpuNode) == 0 {
		return nil, fmt.Errorf("topology: no GPUs")
	}
	t.finalize()
	if len(b.nodeLink) > 0 {
		t.linkBW = make([]float64, len(t.links))
		t.linkLat = make([]float64, len(t.links))
		for l := range t.links {
			t.linkBW[l] = t.BandwidthGBs
			t.linkLat[l] = t.LatencyUS
		}
		for node, p := range b.nodeLink {
			t.linkBW[t.upLink[node]], t.linkBW[t.downLink[node]] = p[0], p[0]
			t.linkLat[t.upLink[node]], t.linkLat[t.downLink[node]] = p[1], p[1]
		}
	}
	t.finalizeLinks()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// finalizeLinks canonicalizes the per-link override slices: a slice whose
// every entry equals the tree default carries no information, so it is
// dropped back to nil. This keeps one representation per machine —
// Heterogeneous(), Key() and Export() all agree — regardless of whether the
// tree came from SetNodeLink calls that happened to restate the defaults,
// from a Spec round-trip, or from Degrade carrying params onto a sub-tree.
func (t *Tree) finalizeLinks() {
	if t.linkBW != nil {
		uniform := true
		for _, v := range t.linkBW {
			if v != t.BandwidthGBs {
				uniform = false
				break
			}
		}
		if uniform {
			t.linkBW = nil
		}
	}
	if t.linkLat != nil {
		uniform := true
		for _, v := range t.linkLat {
			if v != t.LatencyUS {
				uniform = false
				break
			}
		}
		if uniform {
			t.linkLat = nil
		}
	}
}

// FourGPUTree reproduces the paper's Figure 3.3: host - SW1 - {SW2(gpu1,
// gpu2), SW3(gpu3, gpu4)}.
func FourGPUTree() *Tree {
	b := NewBuilder()
	sw1 := b.AddSwitch(b.Root(), "SW1")
	sw2 := b.AddSwitch(sw1, "SW2")
	sw3 := b.AddSwitch(sw1, "SW3")
	b.AddGPU(sw2)
	b.AddGPU(sw2)
	b.AddGPU(sw3)
	b.AddGPU(sw3)
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// PairedTree builds a machine with g GPUs attached pairwise to switches
// under a root switch, matching Figure 3.3 truncated to g GPUs. g must be
// between 1 and 4 for the canned shape; larger machines add more pair
// switches.
func PairedTree(g int) *Tree {
	if g < 1 {
		panic("topology: PairedTree needs at least 1 GPU")
	}
	b := NewBuilder()
	sw1 := b.AddSwitch(b.Root(), "SW1")
	for added, sw := 0, -1; added < g; added++ {
		if added%2 == 0 {
			sw = b.AddSwitch(sw1, fmt.Sprintf("SW%d", 2+added/2))
		}
		b.AddGPU(sw)
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Key returns a canonical string identifying the tree's shape and link
// parameters: two trees with equal keys route and cost transfers
// identically. core.Service uses it in compile-cache keys, so it must be
// cheap — a single pre-sized strings.Builder pass, not repeated string
// concatenation. Homogeneous trees keep the historical key format; per-link
// overrides append lbw/llat sections (a heterogeneous tree never collides
// with a homogeneous one).
func (t *Tree) Key() string {
	var b strings.Builder
	b.Grow(24 + 4*(len(t.parent)+len(t.gpuNode)) + 8*(len(t.linkBW)+len(t.linkLat)))
	var scratch [32]byte
	float := func(v float64) {
		b.Write(strconv.AppendFloat(scratch[:0], v, 'g', -1, 64))
	}
	b.WriteString("bw=")
	float(t.BandwidthGBs)
	b.WriteString(";lat=")
	float(t.LatencyUS)
	b.WriteString(";p=")
	for _, p := range t.parent {
		b.WriteString(strconv.Itoa(p))
		b.WriteByte(',')
	}
	b.WriteString(";g=")
	for _, n := range t.gpuNode {
		b.WriteString(strconv.Itoa(n))
		b.WriteByte(',')
	}
	if t.linkBW != nil {
		b.WriteString(";lbw=")
		for _, v := range t.linkBW {
			float(v)
			b.WriteByte(',')
		}
	}
	if t.linkLat != nil {
		b.WriteString(";llat=")
		for _, v := range t.linkLat {
			float(v)
			b.WriteByte(',')
		}
	}
	return b.String()
}

// NumGPUs returns the number of GPU leaves.
func (t *Tree) NumGPUs() int { return len(t.gpuNode) }

// NumNodes returns the number of tree nodes, host root included.
func (t *Tree) NumNodes() int { return len(t.parent) }

// ParentOf returns the parent of tree node `node`, or -1 for the root.
// Together with EndpointNode it lets external validators (the synthetic
// differential harness, property tests) walk a Route link by link.
func (t *Tree) ParentOf(node int) int { return t.parent[node] }

// EndpointNode maps an endpoint (a GPU index or Host) to its tree node.
func (t *Tree) EndpointNode(endpoint int) int { return t.nodeOf(endpoint) }

// NumLinks returns the number of directed links.
func (t *Tree) NumLinks() int { return len(t.links) }

// Links returns all directed links.
func (t *Tree) Links() []Link { return t.links }

// LinkName renders a link for reports.
func (t *Tree) LinkName(id int) string {
	l := t.links[id]
	p := t.parent[l.Child]
	if l.Dir == Up {
		return t.name[l.Child] + "->" + t.name[p]
	}
	return t.name[p] + "->" + t.name[l.Child]
}

// nodeOf maps an endpoint (GPU index or Host) to a tree node.
func (t *Tree) nodeOf(endpoint int) int {
	if endpoint == Host {
		return 0
	}
	return t.gpuNode[endpoint]
}

// underLink reports whether endpoint lies in the subtree at the link's child
// end ("is a child of l" in the paper's rule).
func (t *Tree) underLink(l Link, endpoint int) bool {
	node := t.nodeOf(endpoint)
	for node != -1 {
		if node == l.Child {
			return true
		}
		node = t.parent[node]
	}
	return false
}

// Carries reports whether a transfer src->dst crosses directed link l:
// an uplink carries it iff src is under l and dst is not; a downlink iff dst
// is under l and src is not.
func (t *Tree) Carries(l Link, src, dst int) bool {
	if src == dst {
		return false
	}
	if l.Dir == Up {
		return t.underLink(l, src) && !t.underLink(l, dst)
	}
	return t.underLink(l, dst) && !t.underLink(l, src)
}

// Route returns the directed link ids on the path src -> dst (peer-to-peer
// through the lowest common ancestor; either endpoint may be Host). An empty
// route means src == dst. The slice is the tree's cached table entry
// (capacity-clamped); callers must not write to it.
func (t *Tree) Route(src, dst int) []int {
	return t.routes[t.routeIdx(src, dst)]
}

// computeRoute derives one route table entry; see Route.
func (t *Tree) computeRoute(src, dst int) []int {
	if src == dst {
		return nil
	}
	var route []int
	for _, l := range t.links {
		if t.Carries(l, src, dst) {
			route = append(route, l.ID)
		}
	}
	// Order: uplinks bottom-up then downlinks top-down. Depth sorting.
	depth := func(node int) int {
		d := 0
		for node != -1 {
			d++
			node = t.parent[node]
		}
		return d
	}
	for i := 0; i < len(route); i++ {
		for j := i + 1; j < len(route); j++ {
			li, lj := t.links[route[i]], t.links[route[j]]
			swap := false
			switch {
			case li.Dir == Down && lj.Dir == Up:
				swap = true
			case li.Dir == lj.Dir && li.Dir == Up && depth(li.Child) < depth(lj.Child):
				swap = true
			case li.Dir == lj.Dir && li.Dir == Down && depth(li.Child) > depth(lj.Child):
				swap = true
			}
			if swap {
				route[i], route[j] = route[j], route[i]
			}
		}
	}
	return route
}

// RouteViaHost returns the links of a transfer staged through the host
// (device-to-host then host-to-device), as the previous work [7] does for
// every inter-GPU communication. Cached like Route; do not write to the
// returned slice.
func (t *Tree) RouteViaHost(src, dst int) []int {
	return t.hostRoutes[t.routeIdx(src, dst)]
}

func (t *Tree) computeRouteViaHost(src, dst int) []int {
	if src == dst {
		return nil
	}
	up := t.computeRoute(src, Host)
	down := t.computeRoute(Host, dst)
	return append(up[:len(up):len(up)], down...)
}

// TransferUS returns the uncontended time for one transfer of `bytes` over a
// route at the tree's nominal (default) link parameters: latency plus
// bytes/bandwidth (the route is pipelined cut-through, so length does not
// multiply the bandwidth term). Heterogeneity-aware consumers cost each
// link with LinkBandwidthGBs/LinkLatencyUS instead.
func (t *Tree) TransferUS(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return t.LatencyUS + float64(bytes)/(t.BandwidthGBs*1e3) // GB/s == bytes/ns == 1e3 bytes/us
}

// Validate sanity-checks the tree.
func (t *Tree) Validate() error {
	if t.BandwidthGBs <= 0 || t.LatencyUS < 0 {
		return fmt.Errorf("topology: bad link parameters")
	}
	if t.linkBW != nil && len(t.linkBW) != len(t.links) {
		return fmt.Errorf("topology: %d link bandwidth overrides for %d links", len(t.linkBW), len(t.links))
	}
	if t.linkLat != nil && len(t.linkLat) != len(t.links) {
		return fmt.Errorf("topology: %d link latency overrides for %d links", len(t.linkLat), len(t.links))
	}
	for l, v := range t.linkBW {
		if v <= 0 {
			return fmt.Errorf("topology: link %d has non-positive bandwidth %g", l, v)
		}
	}
	for l, v := range t.linkLat {
		if v < 0 {
			return fmt.Errorf("topology: link %d has negative latency %g", l, v)
		}
	}
	for gi, node := range t.gpuNode {
		for n := node; ; {
			p := t.parent[n]
			if p == -1 {
				if n != 0 {
					return fmt.Errorf("topology: gpu %d not rooted at host", gi)
				}
				break
			}
			n = p
		}
	}
	return nil
}
