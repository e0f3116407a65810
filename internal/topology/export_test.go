package topology

// DTList returns the source-destination pairs whose traffic loads directed
// link l — the paper's dtlist(l). Endpoints range over all GPUs and Host.
func (t *Tree) DTList(l Link) []Pair {
	endpoints := make([]int, 0, t.NumGPUs()+1)
	endpoints = append(endpoints, Host)
	for g := 0; g < t.NumGPUs(); g++ {
		endpoints = append(endpoints, g)
	}
	var out []Pair
	for _, s := range endpoints {
		for _, d := range endpoints {
			if s != d && t.Carries(l, s, d) {
				out = append(out, Pair{s, d})
			}
		}
	}
	return out
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
