// Package codegen emits the compiled mapping as inspectable artifacts: a
// CUDA-C-like source file per partition kernel plus the host driver that
// launches the fragment pipeline, and a Graphviz rendering of the
// partitioned graph.
//
// The emitted CUDA is the one-kernel-for-graph scheme of §2.1.3/Figure
// 2.1(c): compute warps execute the partition's filters against
// shared-memory buffers at the offsets chosen by the smreq allocator, while
// F data-transfer threads stream the primary I/O through global memory with
// double buffering, using exactly the (S, W, F) parameters the performance
// estimation engine selected — the generator and the estimator share those
// decisions, which is the paper's remedy for static discrepancy. There is
// no CUDA toolchain in this environment, so the source is a golden-tested
// artifact while the equivalent executable Plan runs on the simulator.
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"streammap/internal/gpusim"
	"streammap/internal/sdf"
	"streammap/internal/smreq"
)

// CUDA renders the whole plan as one annotated CUDA-like source file.
func CUDA(plan *gpusim.Plan) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated by streammap for %s on %s (%d GPUs)\n",
		plan.Graph.Name, plan.Machine.Device.Name, plan.Machine.Topo.NumGPUs())
	fmt.Fprintf(&b, "// %d partitions, %d fragment iterations per pipeline stage\n\n",
		len(plan.Kernels), plan.FragmentIters)
	b.WriteString("#include <cuda_runtime.h>\n\n")

	for pi, k := range plan.Kernels {
		sub, err := plan.Graph.Extract(k.Members)
		if err != nil {
			return "", fmt.Errorf("codegen: partition %d: %w", pi, err)
		}
		lay, err := smreq.Analyze(sub)
		if err != nil {
			return "", fmt.Errorf("codegen: partition %d: %w", pi, err)
		}
		emitKernel(&b, plan, pi, sub.Sub, lay)
	}
	emitHostDriver(&b, plan)
	return b.String(), nil
}

func kernelName(pi int) string { return fmt.Sprintf("partition%d_kernel", pi) }

// emitKernel writes kernel pi, whose extracted graph is sub, laid out by lay.
func emitKernel(b *strings.Builder, plan *gpusim.Plan, pi int, sub *sdf.Graph, lay *smreq.Layout) {
	k := plan.Kernels[pi]
	p := k.Params
	fmt.Fprintf(b, "// ---- partition %d: nodes %s on GPU %d ----\n",
		pi, sdf.FormatMembers(k.Members), plan.GPUOf[pi])
	fmt.Fprintf(b, "// parameters: S=%d compute threads/execution, W=%d executions/SM, F=%d DT threads\n",
		p.S, p.W, p.F)
	fmt.Fprintf(b, "// shared memory: %d bytes/execution (x%d executions)\n", k.SMBytes, p.W)
	fmt.Fprintf(b, "__global__ void %s(const float *gin, float *gout, int nExec) {\n", kernelName(pi))
	fmt.Fprintf(b, "  extern __shared__ float sm[]; // %d bytes per execution\n", lay.PeakBytes)
	fmt.Fprintf(b, "  const int exec = threadIdx.x / %d;        // execution slot within the block\n", p.S)
	fmt.Fprintf(b, "  const bool isDT = threadIdx.x >= %d;      // last %d threads stream global memory\n",
		p.W*p.S, p.F)
	b.WriteString("  float *smBase = sm + exec * " + fmt.Sprint(lay.PeakBytes/4) + ";\n")

	// Buffer map.
	bufs := append([]smreq.Buffer(nil), lay.Buffers...)
	sort.Slice(bufs, func(i, j int) bool { return bufs[i].Offset < bufs[j].Offset })
	b.WriteString("  // shared-memory buffer map (byte offsets):\n")
	for _, buf := range bufs {
		switch buf.Kind {
		case smreq.Internal:
			e := sub.Edge0(buf.Edge)
			fmt.Fprintf(b, "  //   [%6d] chan %s->%s (%d B)\n", buf.Offset,
				sub.Node0(e.Src).Filter.Name, sub.Node0(e.Dst).Filter.Name, buf.Total())
		case smreq.PrimaryIn:
			fmt.Fprintf(b, "  //   [%6d] input %v (%d B, double buffered)\n", buf.Offset, buf.Port, buf.Total())
		case smreq.PrimaryOut:
			fmt.Fprintf(b, "  //   [%6d] output %v (%d B, double buffered)\n", buf.Offset, buf.Port, buf.Total())
		case smreq.State:
			fmt.Fprintf(b, "  //   [%6d] state of node %d (%d B)\n", buf.Offset, buf.Port.Node, buf.Total())
		}
	}

	b.WriteString("  for (int it = 0; it < nExec; it += " + fmt.Sprint(p.W) + ") {\n")
	b.WriteString("    if (isDT) {\n")
	b.WriteString("      dt_stream_in(gin, smBase);   // F threads fill the next double buffer\n")
	b.WriteString("      dt_stream_out(smBase, gout);\n")
	b.WriteString("    } else {\n")
	for _, nid := range lay.Schedule {
		n := sub.Node0(nid)
		reps := sub.Rep(nid)
		fmt.Fprintf(b, "      run_%s(smBase); // x%d firing(s)%s\n",
			sanitize(n.Filter.Name), reps, zeroCopyNote(n.Filter))
	}
	b.WriteString("    }\n")
	b.WriteString("    __syncthreads();\n")
	b.WriteString("    swap_buffers(smBase); // WS <-> DB rotation (all threads)\n")
	b.WriteString("  }\n")
	b.WriteString("}\n\n")
}

func zeroCopyNote(f *sdf.Filter) string {
	if f.ZeroCopy {
		return " [eliminated: index-adjusted, no data movement]"
	}
	return ""
}

func emitHostDriver(b *strings.Builder, plan *gpusim.Plan) {
	t := plan.Machine.Topo
	b.WriteString("// ---- host driver: pipelined multi-GPU execution (Figure 3.5) ----\n")
	b.WriteString("void run_pipeline(int nFragments) {\n")
	for g := 0; g < t.NumGPUs(); g++ {
		fmt.Fprintf(b, "  cudaStream_t streams_gpu%d[N_ASYNC_STREAMS];\n", g)
	}
	b.WriteString("  for (int frag = 0; frag < nFragments; frag++) {\n")
	for pi := range plan.Kernels {
		g := plan.GPUOf[pi]
		k := plan.Kernels[pi]
		p := k.Params
		execs := int64(plan.FragmentIters) * k.Scale
		fmt.Fprintf(b, "    cudaSetDevice(%d);\n", g)
		for _, e := range plan.Deps {
			if e.To != pi || plan.GPUOf[e.From] == g {
				continue
			}
			src := plan.GPUOf[e.From]
			if plan.ViaHost {
				fmt.Fprintf(b, "    cudaMemcpyAsync(host_buf, dev%d_out, %d, cudaMemcpyDeviceToHost, s);\n",
					src, e.Bytes*int64(plan.FragmentIters))
				fmt.Fprintf(b, "    cudaMemcpyAsync(dev%d_in, host_buf, %d, cudaMemcpyHostToDevice, s);\n",
					g, e.Bytes*int64(plan.FragmentIters))
			} else {
				fmt.Fprintf(b, "    cudaMemcpyPeerAsync(dev%d_in, %d, dev%d_out, %d, %d, s);\n",
					g, g, src, src, e.Bytes*int64(plan.FragmentIters))
			}
		}
		fmt.Fprintf(b, "    %s<<<%d, %d, %d, s>>>(in%d, out%d, %d);\n",
			kernelName(pi),
			blocksFor(execs, p.W, plan.Machine.Device.NumSMs),
			p.W*p.S+p.F,
			k.SMBytes*int64(p.W),
			pi, pi, execs)
	}
	b.WriteString("  }\n")
	b.WriteString("  // streams of different fragments overlap: transfers hide behind kernels\n")
	b.WriteString("}\n")
}

func blocksFor(execs int64, w, sms int) int64 {
	blocks := (execs + int64(w) - 1) / int64(w)
	if blocks > int64(sms) {
		return int64(sms) // persistent blocks loop over the remaining waves
	}
	return blocks
}

func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Dot renders the partitioned graph in Graphviz format, clustering nodes by
// partition and coloring by GPU assignment.
func Dot(plan *gpusim.Plan) string {
	var b strings.Builder
	colors := []string{"lightblue", "lightgreen", "lightsalmon", "plum", "khaki", "lightcyan"}
	b.WriteString("digraph streamgraph {\n  rankdir=TB;\n  node [shape=box, style=filled];\n")
	for pi, k := range plan.Kernels {
		g := plan.GPUOf[pi]
		fmt.Fprintf(&b, "  subgraph cluster_p%d {\n    label=\"P%d (GPU %d)\";\n    color=gray;\n", pi, pi, g)
		for _, m := range k.Members {
			n := plan.Graph.Node0(m)
			fmt.Fprintf(&b, "    n%d [label=\"%s\\nf=%d\", fillcolor=%s];\n",
				m, n.Filter.Name, plan.Graph.Rep(m), colors[g%len(colors)])
		}
		b.WriteString("  }\n")
	}
	for _, e := range plan.Graph.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%dB\"];\n", e.Src, e.Dst, plan.Graph.EdgeBytes(e))
	}
	b.WriteString("}\n")
	return b.String()
}

// Report summarizes the compilation as human-readable text.
func Report(plan *gpusim.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "app %s on %s, %d GPUs, %d partitions, B=%d iterations/fragment\n",
		plan.Graph.Name, plan.Machine.Device.Name, plan.Machine.Topo.NumGPUs(),
		len(plan.Kernels), plan.FragmentIters)
	for pi, k := range plan.Kernels {
		p := k.Params
		bound := "IO-bound"
		if k.ComputeBound {
			bound = "compute-bound"
		}
		fmt.Fprintf(&b, "  P%-3d gpu=%d nodes=%-3d S=%-4d W=%-3d F=%-4d SM=%6dB D=%6dB T=%8.2fus %s\n",
			pi, plan.GPUOf[pi], len(k.Members), p.S, p.W, p.F,
			k.SMBytes, k.IOBytes, k.TUS, bound)
	}
	var cut int64
	cross := 0
	for _, e := range plan.Deps {
		if plan.GPUOf[e.From] != plan.GPUOf[e.To] {
			cross++
			cut += e.Bytes
		}
	}
	fmt.Fprintf(&b, "  inter-GPU edges: %d (%d bytes/iteration)\n", cross, cut)
	return b.String()
}
