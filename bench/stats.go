package main

import (
	"math"
	"sort"

	"streammap/internal/synth"
)

// median returns the middle of vs (mean of the two middles for an even
// count), 0 for none. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// geomean is the geometric mean of positive values, 0 for none.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// tailBeyond is how many samples must lie above a reported tail percentile
// for it to be more than one request's luck.
const tailBeyond = 10

// tail returns the highest percentile not above p99 that still has at
// least tailBeyond samples beyond it, and the percentile actually used.
// With too few samples for any such percentile it is the maximum (p100).
func tail(vs []float64) (value, percentile float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 1 - tailBeyond; idx > lim {
		idx = lim
	}
	if idx < 0 {
		idx = n - 1
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// Request classes of the open-loop schedule.
const (
	classHot    = 0
	classUnique = 1
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	dueS  float64 // seconds after the window opens
	class int
	key   int // index into the hot set, or into the unique stream
}

// poissonSchedule is the open-loop arrival plan, a pure function of its
// arguments: n = round(rate*seconds) arrivals of a Poisson process
// conditioned on that count (n sorted uniform draws — conditioning keeps
// the offered load identical across seeds, so seeds differ in burstiness
// and not in how much work was offered), a fixed round(uniqueShare*n) of
// them one-shot unique graphs numbered in arrival order, the rest uniform
// draws over hotKeys.
func poissonSchedule(seed uint64, rate, seconds, uniqueShare float64, hotKeys int) []arrival {
	r := synth.NewRand(seed ^ 0x5eed0a221fa15)
	n := int(math.Round(rate * seconds))
	out := make([]arrival, n)
	for i := range out {
		out[i].dueS = seconds * float64(r.Uint64()>>11) / (1 << 53)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dueS < out[j].dueS })
	for _, i := range sample(r, n, int(math.Round(uniqueShare*float64(n)))) {
		out[i].class = classUnique
	}
	next := 0
	for i := range out {
		if out[i].class == classUnique {
			out[i].key = next
			next++
		} else {
			out[i].key = r.Intn(hotKeys)
		}
	}
	return out
}

// sample draws up to k distinct indices below n, in draw order.
func sample(r *synth.Rand, n, k int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}
