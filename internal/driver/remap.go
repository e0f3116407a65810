package driver

import (
	"context"
	"fmt"
	"math"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/mapping"
	"streammap/internal/obs"
	"streammap/internal/partition"
	"streammap/internal/pdg"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// RemapOptions tunes a Remap call. The compilation identity (device,
// fragment size, partitioner, mapper, ILP budget) always comes from the
// artifact: a remap re-targets an existing compilation, it does not start a
// new one.
type RemapOptions struct {
	// Workers bounds the mapper portfolio's worker pool; 0 selects
	// GOMAXPROCS. Wall-clock only, never the result.
	Workers int

	// GPUMap is the device survival map returned by topology.Degrade (and
	// driver.Degrade): GPUMap[old] is the device's index in the degraded
	// tree, -1 if it was lost. When present, the mapping stage warm-starts:
	// the artifact's assignment is projected onto the survivors (displaced
	// partitions re-placed longest-first onto the least-loaded device) and
	// refined by local-search descents from that seed and a greedy reseed
	// — the incremental path that makes remap several times cheaper than
	// a cold compile. When nil, the full mapper portfolio re-runs, which
	// reproduces a cold compile's assignment exactly but re-pays its
	// mapping cost.
	GPUMap []int
}

// Remap re-targets a compiled artifact onto a degraded topology — GPUs
// removed, links throttled (topology.Degrade) — without recompiling. The
// partitions are reused verbatim from the artifact (Rehydrate re-profiles
// the graph and rebuilds the PDG over them): they are functions of the graph
// and the device, not of the interconnect, so a device falling off the bus
// invalidates only the partition-to-GPU mapping.
// Only the mapping stage re-runs against the surviving devices — warm-
// started from the pre-failure assignment when opts.GPUMap is given, the
// full portfolio otherwise — plus plan reassembly.
//
// When the artifact's partitions outnumber the surviving GPUs, the
// remapped objective regressed against the pre-failure plan, and the count
// stays within remergeMaxParts (past which no candidate can win), Remap also
// scores a re-merge candidate — the original partitions greedily merged down
// toward the device count — and adopts it only when its mapped objective
// strictly beats remapping the original partitions. The stage provenance of
// the result names "remap" (and "remap-merge" when the candidate was
// scored), never profile/partition/pdg/map: those passes did not run.
//
// The result's graph is a structural twin rebuilt from the artifact's
// embedded spec (see Rehydrate): timing simulation and re-export work,
// functional execution needs the caller's real graph.
func Remap(ctx context.Context, a *artifact.Artifact, degraded *topology.Tree, opts RemapOptions) (*Compiled, error) {
	if degraded == nil {
		return nil, fmt.Errorf("driver: remap: nil degraded topology")
	}
	if err := degraded.Validate(); err != nil {
		return nil, err
	}
	// Rehydrate the compilation over a structural twin, with every check a
	// decoded artifact gets, then re-target it.
	c, err := Rehydrate(a)
	if err != nil {
		return nil, err
	}
	g, from := c.Graph, c.Assign.Objective
	dopts := c.Options
	dopts.Topo = degraded
	dopts.Workers = opts.Workers
	dopts = dopts.withDefaults()
	c.Options = dopts

	start := time.Now()
	rctx, span := obs.StartSpan(ctx, "stage.remap")
	c.Problem = mappingProblem(dopts, c.PDG, c.Parts.Parts)
	mode := "portfolio"
	if opts.GPUMap != nil && dopts.Mapper == ILPMapper {
		mode = "warm"
		c.Assign, err = warmRemap(rctx, c.Problem, a, opts.GPUMap)
	} else {
		c.Assign, err = solveMapping(rctx, dopts, c.Problem)
	}
	if err != nil {
		span.End()
		return nil, err
	}
	span.Notef("%s; gpus %d->%d; parts %d; objective %g -> %g",
		mode, len(a.Options.Topo.GPUNodes), degraded.NumGPUs(), len(c.Parts.Parts), from, c.Assign.Objective)
	span.End()
	c.Stages = append(c.Stages, StageMetric{Name: "remap", Duration: time.Since(start)})

	// The re-merge candidate is a repair for degradation-induced
	// oversubscription: it is scored only when partitions outnumber the
	// surviving devices, the remapped objective actually regressed against
	// the pre-failure plan (an un-regressed plan has nothing to repair),
	// and the scan is affordable (see remergeMaxParts).
	remerged := false
	if n := len(c.Parts.Parts); n > degraded.NumGPUs() && n <= remergeMaxParts &&
		c.Assign.Objective > from {
		start = time.Now()
		mctx, span := obs.StartSpan(ctx, "stage.remap-merge")
		info, err := c.tryRemerge(mctx, g)
		if err != nil {
			span.End()
			return nil, err
		}
		remerged = info.adopted
		span.Notef("%v", info)
		span.End()
		c.Stages = append(c.Stages, StageMetric{Name: "remap-merge", Duration: time.Since(start)})
	}

	c.Plan = buildPlan(g, dopts, c.Prof, c.Parts.Parts, c.PDG, c.Assign.GPUOf)
	c.RemapInfo = &artifact.RemapInfo{
		FromTopo:      a.Options.Topo,
		FromObjective: from,
		Remerged:      remerged,
	}
	return c, nil
}

// remergeMaxParts caps the partition count at which the re-merge fallback
// is scored. The greedy merge scan is O(P²) engine estimates per round;
// far above the device count a merged candidate also loses systematically
// — co-location already makes the traffic local, so merging can only save
// per-kernel launch overhead while wave quantization inflates the fused
// kernels — so past mild oversubscription the scan is all cost and no
// candidate.
const remergeMaxParts = 32

// warmRemap is the incremental mapping path: project the artifact's
// pre-failure assignment through the device survival map, re-place the
// displaced partitions longest-first onto the least-loaded surviving
// device, and descend from that seed to a local optimum of the exact
// objective. Deterministic.
func warmRemap(ctx context.Context, p *mapping.Problem, a *artifact.Artifact, gpuMap []int) (*mapping.Assignment, error) {
	oldG, newG := len(a.Options.Topo.GPUNodes), p.Topo.NumGPUs()
	if len(gpuMap) != oldG {
		return nil, fmt.Errorf("driver: remap: survival map covers %d of %d pre-failure devices", len(gpuMap), oldG)
	}
	seen := make([]bool, newG)
	for _, ng := range gpuMap {
		if ng < 0 {
			continue
		}
		if ng >= newG || seen[ng] {
			return nil, fmt.Errorf("driver: remap: survival map is not injective into the %d surviving devices", newG)
		}
		seen[ng] = true
	}
	old := a.Assignment.GPUOf
	seed := make([]int, len(old))
	load := make([]float64, newG)
	var displaced []int
	for i, og := range old {
		if og < 0 || og >= oldG {
			return nil, fmt.Errorf("driver: remap: artifact assigns partition %d to GPU %d of %d", i, og, oldG)
		}
		if ng := gpuMap[og]; ng >= 0 {
			seed[i] = ng
			load[ng] += p.PartTimeUS(i)
		} else {
			displaced = append(displaced, i)
		}
	}
	mapping.PlaceLongestFirst(p, displaced, seed, load)
	// A greedy reseed — the strongest leg of the cold portfolio — guards
	// against the projected seed descending into a poor local optimum on a
	// reshaped topology. Both descents are deterministic and both complete
	// before selection, so running them concurrently only cuts wall-clock.
	// Ties keep the projection: it migrates the fewest partitions.
	var gre *mapping.Assignment
	greDone := make(chan struct{})
	go func() {
		defer close(greDone)
		gre = mapping.Refine(ctx, p, mapping.Greedy(p).GPUOf)
	}()
	warm := mapping.Refine(ctx, p, seed)
	<-greDone
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("driver: remap: cancelled: %w", err) // the descents were cut short
	}
	if gre.Objective < warm.Objective-1e-9 {
		return gre, nil
	}
	return warm, nil
}

// remergeInfo reports how the re-merge candidate fared, for the
// stage.remap-merge span's note.
type remergeInfo struct {
	from, to int
	adopted  bool
	cand     float64 // candidate objective (NaN when no merge was possible)
	kept     float64 // incumbent objective
}

func (i remergeInfo) String() string {
	verdict := "rejected"
	if i.adopted {
		verdict = "adopted"
	}
	if math.IsNaN(i.cand) {
		return fmt.Sprintf("no feasible merge below %d parts", i.from)
	}
	return fmt.Sprintf("parts %d->%d; objective %g vs %g; %s", i.from, i.to, i.cand, i.kept, verdict)
}

// tryRemerge scores the fallback for partitions outnumbering surviving
// devices: greedily merge the cheapest feasible adjacent partition pair
// until the partition count reaches the GPU count (or no merge is feasible),
// rebuild the PDG over the merged partitions, re-run the mapper, and adopt
// the candidate only on strict objective improvement. Merging can beat
// co-locating the original partitions on one GPU because a merged kernel
// launches once and its internal traffic leaves the PDG entirely.
func (c *Compiled) tryRemerge(ctx context.Context, g *sdf.Graph) (remergeInfo, error) {
	info := remergeInfo{from: len(c.Parts.Parts), kept: c.Assign.Objective, cand: math.NaN()}
	merged, err := remergeParts(ctx, g, pee.NewEngine(g, c.Prof), c.Parts.Parts, c.Options.Topo.NumGPUs())
	if err != nil {
		return info, err
	}
	if merged == nil {
		return info, nil // nothing merged: candidate identical to incumbent
	}
	dgM, err := pdg.Build(g, merged)
	if err != nil {
		return info, err
	}
	problem := mappingProblem(c.Options, dgM, merged)
	assign, err := solveMapping(ctx, c.Options, problem)
	if err != nil {
		return info, err
	}
	info.to = len(merged)
	info.cand = assign.Objective
	if assign.Objective < c.Assign.Objective {
		info.adopted = true
		c.Parts = &partition.Result{Graph: g, Parts: merged}
		c.PDG = dgM
		c.Problem = problem
		c.Assign = assign
	}
	return info, nil
}

// remergeParts greedily merges connected, convex, schedulable partition
// pairs — cheapest merged workload first — until `target` partitions remain
// or no pair is feasible. Returns nil when no merge was possible at all.
// The input partitions are not modified; merged partitions carry their own
// member lists and engine estimates. Each round reads adjacency from
// one node -> partition owner array, and every candidate union is built in
// one scratch set, listed into one scratch slice for the engine, and
// cleared again.
func remergeParts(ctx context.Context, g *sdf.Graph, eng *pee.Engine, parts []*partition.Partition, target int) ([]*partition.Partition, error) {
	if target < 1 {
		target = 1
	}
	live := append([]*partition.Partition(nil), parts...)
	mergedAny := false
	owner := make([]int, g.NumNodes())
	union := sdf.NewNodeSet(g.NumNodes())
	var members []sdf.NodeID
	convex := g.NewConvexChecker()
	mark := func(op func(sdf.NodeID), ps ...*partition.Partition) {
		for _, p := range ps {
			for _, m := range p.Members {
				op(m)
			}
		}
	}
	// The engine memoizes verdicts and errors per member list: merging one
	// pair leaves every other union unchanged, so a round re-pays only for
	// pairs touching the freshly merged partition.
	for len(live) > target {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, p := range live {
			for _, m := range p.Members {
				owner[m] = i
			}
		}
		adjacent := make([]bool, len(live))
		bi, bj := -1, -1
		var bestEst *pee.Estimate
		bestTW := math.Inf(1)
		for i := 0; i < len(live); i++ {
			clear(adjacent)
			for _, m := range live[i].Members {
				for _, v := range g.Succ(m) {
					adjacent[owner[v]] = true
				}
				for _, v := range g.Pred(m) {
					adjacent[owner[v]] = true
				}
			}
			for j := i + 1; j < len(live); j++ {
				if !adjacent[j] {
					continue
				}
				mark(union.Add, live[i], live[j])
				if convex.IsConvex(union) {
					// An error is an SM violation or unschedulable union: the
					// pair is infeasible.
					members = union.AppendMembers(members[:0])
					if est, err := eng.Estimate(members); err == nil {
						if tw := est.TUS * float64(eng.ScaleOf(members)); tw < bestTW {
							bi, bj, bestEst, bestTW = i, j, est, tw
						}
					}
				}
				mark(union.Remove, live[i], live[j])
			}
		}
		if bi == -1 {
			break
		}
		mark(union.Add, live[bi], live[bj])
		own := union.Members()
		merged := &partition.Partition{Members: own, Scale: eng.ScaleOf(own), Est: bestEst}
		mark(union.Remove, live[bi], live[bj])
		live = append(live[:bj], live[bj+1:]...)
		live[bi] = merged
		mergedAny = true
	}
	if !mergedAny {
		return nil, nil
	}
	return live, nil
}

// Degrade is a convenience re-export: it applies a degradation to the
// healthy topology embedded in an artifact's options. Callers that already
// hold a *topology.Tree use topology's Degrade directly.
func Degrade(a *artifact.Artifact, d topology.Degradation) (*topology.Tree, []int, error) {
	healthy, err := topology.Import(a.Options.Topo)
	if err != nil {
		return nil, nil, err
	}
	return healthy.Degrade(d)
}
