// Differential harness: for any scenario, the pass-pipeline at one worker
// (the serial reference) and at the scenario's worker count must produce
// identical compilations, and the compilation itself must satisfy the
// structural invariants of a valid mapping. Running this over seeded
// corpora turns the repository's correctness story from six golden
// applications into an unbounded family.
package synth

import (
	"context"
	"fmt"

	"streammap/internal/driver"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
	"streammap/internal/smreq"
	"streammap/internal/topology"
)

// Check compiles the scenario through driver.Compile twice — serially, at
// Workers 1, and concurrently, at the scenario's own worker count — and
// asserts full equivalence — identical partitions, PDG, assignment, cost
// and simulated throughput — plus every structural invariant
// (CheckInvariants). The two runs compile independently regenerated twin
// graphs, which additionally cross-checks generator determinism. A scenario
// on which *both* runs fail identically (e.g. a single-partition compilation
// that cannot fit in shared memory) is an agreement, not a divergence.
func Check(ctx context.Context, sc *Scenario) error {
	fail := func(stage string, err error) error {
		return fmt.Errorf("synth: scenario %s: %s: %w", sc.Name, stage, err)
	}

	ga, err := BuildGraph(sc.GraphP)
	if err != nil {
		return fail("generate", err)
	}
	gb, err := BuildGraph(sc.GraphP)
	if err != nil {
		return fail("regenerate", err)
	}
	if ga.Fingerprint() != gb.Fingerprint() {
		return fail("generate", fmt.Errorf("twin graphs from one seed have different fingerprints"))
	}
	if t2, err := BuildTopology(sc.TopoP); err != nil {
		return fail("topology", err)
	} else if t2.Key() != sc.Opts.Topo.Key() {
		return fail("topology", fmt.Errorf("twin topologies from one seed have different keys"))
	}

	serial, serr := driver.Compile(ctx, ga, serialOpts(sc.Opts))
	pipe, perr := driver.Compile(ctx, gb, sc.Opts)
	switch {
	case serr != nil && perr != nil:
		if serr.Error() != perr.Error() {
			return fail("compile", fmt.Errorf("flows fail differently: serial %q, pipeline %q", serr, perr))
		}
		return nil // agreed rejection
	case serr != nil:
		return fail("compile", fmt.Errorf("serial fails (%v) but pipeline succeeds", serr))
	case perr != nil:
		return fail("compile", fmt.Errorf("pipeline fails (%v) but serial succeeds", perr))
	}

	if err := driver.Equivalent(serial, pipe); err != nil {
		return fail("differential", err)
	}
	if err := driver.SameThroughput(serial, pipe, 24); err != nil {
		return fail("throughput", err)
	}
	if err := CheckInvariants(pipe); err != nil {
		return fail("invariants", err)
	}
	return nil
}

// serialOpts is opts with every pass pinned to one worker: the serial
// reference the concurrent compilation is compared against.
func serialOpts(opts driver.Options) driver.Options {
	opts.Workers = 1
	return opts
}

// CheckInvariants asserts the structural properties any valid compilation
// must have, independent of how it was produced:
//
//   - the partitions exactly cover the graph (every filter mapped once) and
//     each is convex and connected;
//   - each partition, extracted from scratch, has the recorded scale, lays
//     out to the recorded SM bytes and admits a valid single-appearance
//     schedule, and its kernel parameters respect the device's
//     shared-memory and thread caps;
//   - the PDG's topological order is consistent with its edges;
//   - the assignment maps every partition to a real GPU and its recorded
//     objective reproduces under re-evaluation;
//   - every transfer route the plan implies is a contiguous tree path with
//     the paper's uplinks-then-downlinks shape, and each of its links
//     carries the transfer per topology.Carries.
func CheckInvariants(c *driver.Compiled) error {
	g := c.Graph
	dev := c.Options.Device
	topo := c.Options.Topo

	// The structural checks reuse one scratch set, filled with a partition's
	// members and cleared again.
	covered, set := sdf.NewNodeSet(g.NumNodes()), sdf.NewNodeSet(g.NumNodes())
	convex := g.NewConvexChecker()
	for i, p := range c.Parts.Parts {
		for _, m := range p.Members {
			if covered.Has(m) {
				return fmt.Errorf("node %d in more than one partition", m)
			}
			covered.Add(m)
			set.Add(m)
		}
		if !convex.IsConvex(set) {
			return fmt.Errorf("partition %d (%s) not convex", i, sdf.FormatMembers(p.Members))
		}
		if !convex.IsConnected(set) {
			return fmt.Errorf("partition %d (%s) not connected", i, sdf.FormatMembers(p.Members))
		}
		set.Reset()

		// The referee extracts the partition and lays it out from scratch,
		// independently of the view path the compiler scored it through.
		sub, err := g.Extract(p.Members)
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		if sub.Scale != p.Scale {
			return fmt.Errorf("partition %d: scale %d, its extraction says %d", i, p.Scale, sub.Scale)
		}
		lay, err := smreq.Analyze(sub)
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		if err := sdf.ValidateSchedule(sub.Sub, lay.Schedule); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		if lay.PeakBytes != p.Est.SMBytes {
			return fmt.Errorf("partition %d: layout peak %dB != estimate %dB", i, lay.PeakBytes, p.Est.SMBytes)
		}
		pr := p.Est.Params
		if pr.S < 1 || pr.W < 1 || pr.F < dev.WarpSize || pr.F%dev.WarpSize != 0 {
			return fmt.Errorf("partition %d: degenerate kernel params %+v", i, pr)
		}
		if pr.W*pr.S+pr.F > dev.MaxThreadsPerBlock {
			return fmt.Errorf("partition %d: %d threads exceed block cap %d", i, pr.W*pr.S+pr.F, dev.MaxThreadsPerBlock)
		}
		if p.Est.SMBytes*int64(pr.W) > dev.SharedMemPerSM {
			return fmt.Errorf("partition %d: W=%d executions need %dB shared memory, device has %d",
				i, pr.W, p.Est.SMBytes*int64(pr.W), dev.SharedMemPerSM)
		}
	}
	if covered.Len() != g.NumNodes() {
		return fmt.Errorf("%d of %d nodes mapped", covered.Len(), g.NumNodes())
	}

	P := len(c.Parts.Parts)
	if c.PDG.NumParts() != P || len(c.Assign.GPUOf) != P || len(c.Plan.GPUOf) != P {
		return fmt.Errorf("inconsistent partition counts: parts %d, pdg %d, assign %d, plan %d",
			P, c.PDG.NumParts(), len(c.Assign.GPUOf), len(c.Plan.GPUOf))
	}
	pos := make([]int, P)
	if len(c.PDG.Topo) != P {
		return fmt.Errorf("pdg topo order has %d entries for %d partitions", len(c.PDG.Topo), P)
	}
	seen := make([]bool, P)
	for i, pi := range c.PDG.Topo {
		if pi < 0 || pi >= P || seen[pi] {
			return fmt.Errorf("pdg topo order is not a permutation")
		}
		seen[pi] = true
		pos[pi] = i
	}
	for _, e := range c.PDG.Edges {
		if e.Bytes <= 0 {
			return fmt.Errorf("pdg edge %d->%d has no traffic behind it", e.From, e.To)
		}
		if pos[e.From] >= pos[e.To] {
			return fmt.Errorf("pdg topo order violates edge %d->%d", e.From, e.To)
		}
	}

	for i, k := range c.Assign.GPUOf {
		if k < 0 || k >= topo.NumGPUs() {
			return fmt.Errorf("partition %d assigned to nonexistent gpu %d", i, k)
		}
		if c.Plan.GPUOf[i] != k {
			return fmt.Errorf("plan and assignment disagree on partition %d", i)
		}
	}
	re := mapping.Evaluate(c.Problem, c.Assign.GPUOf, "recheck")
	if re.Objective != c.Assign.Objective {
		return fmt.Errorf("re-evaluated objective %v != recorded %v", re.Objective, c.Assign.Objective)
	}

	checkPair := func(src, dst int) error {
		if c.Plan.ViaHost && src != topology.Host && dst != topology.Host {
			if err := validRoute(topo, src, topology.Host, topo.Route(src, topology.Host)); err != nil {
				return err
			}
			return validRoute(topo, topology.Host, dst, topo.Route(topology.Host, dst))
		}
		return validRoute(topo, src, dst, topo.Route(src, dst))
	}
	for _, e := range c.PDG.Edges {
		gs, gd := c.Assign.GPUOf[e.From], c.Assign.GPUOf[e.To]
		if gs == gd {
			continue
		}
		if err := checkPair(gs, gd); err != nil {
			return fmt.Errorf("pdg edge %d->%d: %w", e.From, e.To, err)
		}
	}
	for i := 0; i < P; i++ {
		if c.PDG.HostInBytes[i] > 0 {
			if err := checkPair(topology.Host, c.Assign.GPUOf[i]); err != nil {
				return fmt.Errorf("host input of partition %d: %w", i, err)
			}
		}
		if c.PDG.HostOutBytes[i] > 0 {
			if err := checkPair(c.Assign.GPUOf[i], topology.Host); err != nil {
				return fmt.Errorf("host output of partition %d: %w", i, err)
			}
		}
	}
	return nil
}

// validRoute checks that route is a contiguous path from src to dst in the
// tree: a (possibly empty) ascent of uplinks from src's node followed by a
// (possibly empty) descent of downlinks to dst's node, with no repeated
// links, every one of which carries the (src, dst) transfer.
func validRoute(t *topology.Tree, src, dst int, route []int) error {
	if src == dst {
		if len(route) != 0 {
			return fmt.Errorf("self-route %d->%d has %d links", src, dst, len(route))
		}
		return nil
	}
	if len(route) == 0 {
		return fmt.Errorf("route %d->%d is empty", src, dst)
	}
	links := t.Links()
	used := map[int]bool{}
	cur := t.EndpointNode(src)
	i := 0
	for ; i < len(route); i++ {
		l := links[route[i]]
		if l.Dir != topology.Up {
			break
		}
		if l.Child != cur {
			return fmt.Errorf("route %d->%d: uplink %d leaves node %d, expected %d", src, dst, l.ID, l.Child, cur)
		}
		cur = t.ParentOf(cur)
	}
	for ; i < len(route); i++ {
		l := links[route[i]]
		if l.Dir != topology.Down {
			return fmt.Errorf("route %d->%d: uplink after a downlink", src, dst)
		}
		if t.ParentOf(l.Child) != cur {
			return fmt.Errorf("route %d->%d: downlink %d not adjacent to node %d", src, dst, l.ID, cur)
		}
		cur = l.Child
	}
	if cur != t.EndpointNode(dst) {
		return fmt.Errorf("route %d->%d ends at node %d, not at %d", src, dst, cur, t.EndpointNode(dst))
	}
	for _, id := range route {
		if used[id] {
			return fmt.Errorf("route %d->%d repeats link %d", src, dst, id)
		}
		used[id] = true
		if !t.Carries(links[id], src, dst) {
			return fmt.Errorf("route %d->%d includes link %d which does not carry it", src, dst, id)
		}
	}
	return nil
}
