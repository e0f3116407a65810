package artifact

import (
	"context"
	"fmt"

	"streammap/internal/gpusim"
	"streammap/internal/sdf"
	"streammap/internal/topology"
)

// planSpec lowers the artifact sections to the simulator's import form. The
// fragment size and the transfer model come from the options: the previous
// work's mapper ("prev") stages every inter-GPU transfer through the host.
func (a *Artifact) planSpec() gpusim.PlanSpec {
	spec := gpusim.PlanSpec{
		HostInBytes:     append([]int64(nil), a.PDG.HostInBytes...),
		HostOutBytes:    append([]int64(nil), a.PDG.HostOutBytes...),
		Order:           append([]int(nil), a.PDG.Topo...),
		GPUOf:           append([]int(nil), a.Assignment.GPUOf...),
		FragmentIters:   a.Options.FragmentIters,
		ViaHost:         a.Options.Mapper == "prev",
		PerFiringCycles: append([]float64(nil), a.Profile.PerFiringCycles...),
	}
	for _, p := range a.Partitions {
		spec.Kernels = append(spec.Kernels, gpusim.KernelSpec{
			Nodes:        append([]int(nil), p.Nodes...),
			Params:       gpusim.KernelParams{S: p.Est.S, W: p.Est.W, F: p.Est.F},
			SMBytes:      p.Est.SMBytes,
			IOBytes:      p.Est.DBytes,
			TUS:          p.Est.TUS,
			ComputeBound: p.Est.ComputeBound,
		})
	}
	for _, e := range a.PDG.Edges {
		spec.Deps = append(spec.Deps, gpusim.Dep{From: e.From, To: e.To, Bytes: e.Bytes})
	}
	return spec
}

// plan lowers the artifact to an executable simulator plan over g, which
// must be the compiled graph (the embedded structural twin or the caller's
// original).
func (a *Artifact) plan(g *sdf.Graph) (*gpusim.Plan, error) {
	topo, err := topology.Import(a.Options.Topo)
	if err != nil {
		return nil, err
	}
	return gpusim.ImportPlan(g, gpusim.Machine{Device: a.Options.Device, Topo: topo}, a.planSpec())
}

// Execute lowers the artifact to an executable plan and runs the timing
// simulation — no compilation pass runs, and no graph or compiler state is
// needed beyond the artifact itself (the stream graph is rebuilt as a
// structural twin from the embedded spec). Outputs is nil in the result;
// use ExecuteWith for functional execution.
func (a *Artifact) Execute(fragments int) (*gpusim.Result, error) {
	return a.ExecuteCtx(context.Background(), fragments)
}

// ExecuteCtx is Execute under a context; cancellation aborts the
// simulation's event loop.
func (a *Artifact) ExecuteCtx(ctx context.Context, fragments int) (*gpusim.Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	g, err := sdf.ImportGraph(a.Graph)
	if err != nil {
		return nil, fmt.Errorf("artifact: rebuilding graph: %w", err)
	}
	if fp := g.Fingerprint(); fp != a.Fingerprint {
		return nil, fmt.Errorf("artifact: embedded graph fingerprints to %016x, artifact claims %016x", fp, a.Fingerprint)
	}
	plan, err := a.plan(g)
	if err != nil {
		return nil, err
	}
	return gpusim.RunTimingCtx(ctx, plan, fragments)
}

// ExecuteWith runs the artifact functionally against the caller's graph —
// the one carrying the real work functions — moving real tokens through
// the pipelined multi-GPU simulation. The graph must fingerprint to the
// artifact's compiled graph.
func (a *Artifact) ExecuteWith(g *sdf.Graph, inputs [][]sdf.Token, fragments int) (*gpusim.Result, error) {
	return a.ExecuteWithCtx(context.Background(), g, inputs, fragments)
}

// ExecuteWithCtx is ExecuteWith under a context.
func (a *Artifact) ExecuteWithCtx(ctx context.Context, g *sdf.Graph, inputs [][]sdf.Token, fragments int) (*gpusim.Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if fp := g.Fingerprint(); fp != a.Fingerprint {
		return nil, fmt.Errorf("artifact: graph fingerprints to %016x, artifact was compiled from %016x", fp, a.Fingerprint)
	}
	plan, err := a.plan(g)
	if err != nil {
		return nil, err
	}
	return gpusim.RunCtx(ctx, plan, inputs, fragments)
}
