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
