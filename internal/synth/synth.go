// Package synth generates random-but-reproducible compilation scenarios:
// stream graphs (nested pipelines and split-joins with skewed work and I/O
// distributions), hierarchical PCIe topologies, and corpora of (graph,
// topology, options) triples. Everything is derived from explicit uint64
// seeds through a pinned splitmix64 generator, so a seed names a scenario
// forever — across runs, platforms and Go releases.
//
// The package exists to widen correctness checking beyond the paper's six
// benchmark applications: the differential harness (diff.go) compiles every
// generated scenario through the pass-pipeline serially (Workers 1) and
// concurrently and asserts identical artifacts plus the structural
// invariants any valid compilation must satisfy. See DESIGN.md S11.
package synth

import (
	"fmt"

	"streammap/internal/sdf"
)

// GraphParams seeds one random stream graph.
type GraphParams struct {
	Seed uint64

	// Filters is the approximate number of filters to generate (the exact
	// count also includes the splitters/joiners of generated split-joins).
	// Default 8.
	Filters int
	// MaxWidth bounds split-join fan-out. Default 4.
	MaxWidth int
	// MaxDepth bounds structural nesting. Default 3.
	MaxDepth int
	// MaxRate bounds per-port token rates. Default 6.
	MaxRate int
	// RateChangeProb is the probability a filter's push rate differs from
	// its pop rate (multi-rate graphs). Default 0.25.
	RateChangeProb float64
	// PeekProb is the probability a filter peeks beyond its pop rate
	// (sliding window; the generator adds the priming delay tokens).
	// Default 0.15.
	PeekProb float64
	// SkewWork selects a heavy-tailed rather than uniform distribution of
	// per-firing Ops: most filters cheap, a few dominating — the shape that
	// stresses workload balancing.
	SkewWork bool
	// MaxOps caps per-firing abstract ops. Default 64.
	MaxOps int64
}

func (p GraphParams) withDefaults() GraphParams {
	if p.Filters <= 0 {
		p.Filters = 8
	}
	if p.MaxWidth < 2 {
		p.MaxWidth = 4
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
	if p.MaxRate <= 0 {
		p.MaxRate = 6
	}
	if p.RateChangeProb == 0 {
		p.RateChangeProb = 0.25
	}
	if p.PeekProb == 0 {
		p.PeekProb = 0.15
	}
	if p.MaxOps <= 0 {
		p.MaxOps = 64
	}
	return p
}

// ratio is a reduced non-negative rational, used to track a stream's token
// gain (output tokens per input token over one steady iteration) so that
// split-join weights can always be balanced exactly.
type ratio struct{ num, den int64 }

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func rat(num, den int64) ratio {
	g := gcd64(num, den)
	return ratio{num / g, den / g}
}

func (r ratio) mul(o ratio) ratio { return rat(r.num*o.num, r.den*o.den) }

func (r ratio) add(o ratio) ratio { return rat(r.num*o.den+o.num*r.den, r.den*o.den) }

// ampCap bounds the cumulative token amplification along any sequential
// path: beyond it the generator stops emitting rate-changing filters and
// duplicate split-joins, since amplification compounds multiplicatively
// (a pipeline of duplicate split-joins grows token rates — and with them
// the repetition vector — geometrically).
const ampCap = 1 << 12

// graphGen carries the generator state through the recursive construction.
type graphGen struct {
	p    GraphParams
	r    *rng
	next int   // filter name counter
	amp  int64 // cumulative |gain| magnitude along the current path
}

// drawRate returns a token rate of the form 2^a·3^b (≤ MaxRate): keeping
// rates 3-smooth keeps the balance equations' lcm — and with it every
// repetition count — small even on long multi-rate chains.
func (g *graphGen) drawRate() int {
	k := (1 << g.r.intn(4)) * []int{1, 1, 1, 3}[g.r.intn(4)]
	for k > g.p.MaxRate {
		k /= 2
	}
	if k < 1 {
		k = 1
	}
	return k
}

// bumpAmp records an applied gain's magnitude.
func (g *graphGen) bumpAmp(gn ratio) {
	m := gn.num
	if gn.den > m {
		m = gn.den
	}
	if m > 1 && g.amp <= ampCap {
		g.amp *= m
	}
}

// BuildStream generates the structural composition for the parameters.
// Identical parameters yield an identical stream.
func BuildStream(p GraphParams) sdf.Stream {
	return buildStream(p.withDefaults(), false)
}

// buildStream is BuildStream on defaulted parameters, with unitGain forcing
// every filter and split-join below the root to preserve its token rate.
func buildStream(p GraphParams, unitGain bool) sdf.Stream {
	g := &graphGen{p: p, r: newRNG(p.Seed), amp: 1}
	s, _, _ := g.stream(p.Filters, 0, true, unitGain)
	return s
}

// maxRep bounds the per-node repetition count of a generated graph: random
// multi-rate draws can push the balance equations' lcm towards (or past)
// int64, and such graphs are also uselessly expensive to compile.
const maxRep = 1 << 22

// BuildGraph generates and flattens a graph. The graph's name embeds the
// seed so compile-cache keys and simulator hashes are scenario-stable.
//
// Unlucky rate draws can make the repetition vector blow up (the balance
// lcm grows multiplicatively along multi-rate chains); such graphs are
// rejected and regenerated with progressively tamer rates under a derived
// seed. The retry path is a pure function of the parameters, so the result
// stays deterministic.
func BuildGraph(p GraphParams) (*sdf.Graph, error) {
	p = p.withDefaults()
	try := p
	name := fmt.Sprintf("synth%d_f%d", p.Seed, p.Filters)
	unitGain := false
	for attempt := 0; ; attempt++ {
		g, err := sdf.Flatten(name, buildStream(try, unitGain))
		if err == nil {
			tame := true
			for _, n := range g.Nodes {
				if g.Rep(n.ID) > maxRep {
					tame = false
					break
				}
			}
			if tame {
				return g, nil
			}
			err = fmt.Errorf("repetition vector exceeds %d", int64(maxRep))
		}
		if attempt >= 5 {
			return nil, fmt.Errorf("synth: seed %d: %w", p.Seed, err)
		}
		try.Seed = try.Seed ^ (0x6C62272E07BB0142 << uint(attempt))
		switch attempt {
		case 0:
			try.MaxRate = p.MaxRate/2 + 1
		case 1:
			try.MaxRate = p.MaxRate/4 + 1
			try.RateChangeProb = -1 // no multi-rate filters
		case 2:
			try.MaxRate = 2
			try.RateChangeProb = -1
		case 3:
			// All rates 1. Duplicate split-joins still multiply tokens by
			// their width, so a nest of them can still blow up.
			try.MaxRate = 1
			try.RateChangeProb = -1
		default:
			// All rates 1 under unit gain, which also rules out duplicate
			// split-joins: every token rate is 1, so the repetition vector
			// is all ones and this rung always terminates the ladder.
			unitGain = true
		}
	}
}

// stream generates a stream of roughly `budget` filters at nesting `depth`.
// atHead marks a stream whose input may become the graph's primary input
// (such a stream must not start with a sliding-window filter: there is no
// channel to carry its priming delay). unitGain forces every generated
// filter below to preserve its token rate, the fallback when split-join
// weight balancing would blow up. It returns the stream, its token gain and
// the number of filters consumed.
func (g *graphGen) stream(budget, depth int, atHead, unitGain bool) (sdf.Stream, ratio, int) {
	if budget <= 1 {
		return g.filter(atHead, unitGain)
	}
	if depth >= g.p.MaxDepth {
		// Nesting exhausted: spend the remaining budget as a flat chain so
		// large targets actually reach their size.
		return g.chain(budget, atHead, unitGain)
	}
	// A split-join spends two filters on the splitter/joiner pair; prefer
	// pipelines when the budget is tight.
	if budget >= 4 && g.r.bool(0.45) {
		return g.splitJoin(budget, depth, atHead, unitGain)
	}
	return g.pipeline(budget, depth, atHead, unitGain)
}

// chain emits `budget` filters in sequence.
func (g *graphGen) chain(budget int, atHead, unitGain bool) (sdf.Stream, ratio, int) {
	if budget <= 1 {
		return g.filter(atHead, unitGain)
	}
	children := make([]sdf.Stream, 0, budget)
	gain := rat(1, 1)
	for i := 0; i < budget; i++ {
		c, cg, _ := g.filter(atHead && i == 0, unitGain)
		children = append(children, c)
		gain = gain.mul(cg)
	}
	return sdf.Pipe(fmt.Sprintf("chain%d", g.r.intn(1<<16)), children...), gain, budget
}

// pipeline composes 2..4 sequential children over the budget.
func (g *graphGen) pipeline(budget, depth int, atHead, unitGain bool) (sdf.Stream, ratio, int) {
	n := g.r.rangeInt(2, 4)
	if n > budget {
		n = budget
	}
	children := make([]sdf.Stream, 0, n)
	gain := rat(1, 1)
	used := 0
	for i := 0; i < n; i++ {
		share := (budget - used) / (n - i)
		if share < 1 {
			share = 1
		}
		c, cg, cu := g.stream(share, depth+1, atHead && i == 0, unitGain)
		children = append(children, c)
		gain = gain.mul(cg)
		used += cu
	}
	return sdf.Pipe(fmt.Sprintf("pipe%d", g.r.intn(1<<16)), children...), gain, used
}

// splitJoin composes parallel branches between a splitter and a joiner with
// exactly balanced weights. The joiner weights are derived from each
// branch's gain; when that derivation would need weights beyond reasonable
// token rates, the branches are regenerated with unit gain (weights then
// equal the split weights).
func (g *graphGen) splitJoin(budget, depth int, atHead, unitGain bool) (sdf.Stream, ratio, int) {
	width := g.r.rangeInt(2, g.p.MaxWidth)
	if width > budget-2 {
		width = budget - 2
	}
	if width < 2 {
		width = 2
	}
	// Duplicate split-joins amplify tokens by their width, so they are
	// disallowed under unit gain (the balancing fallback) and once the
	// path's cumulative amplification hits the cap.
	duplicate := g.r.bool(0.4) && !unitGain && g.amp*int64(width) <= ampCap
	splitW := make([]int, width)
	if duplicate {
		w := g.drawRate()
		for b := range splitW {
			splitW[b] = w
		}
	} else {
		for b := range splitW {
			splitW[b] = g.drawRate()
		}
	}

	// Branch generation is deterministic for a given rng state, so the
	// unit-gain retry below replays the same structural choices with rates
	// pinned to 1:1.
	branchSeed := g.r.next()
	branchGen := func(unit bool) ([]sdf.Stream, []ratio, int) {
		sub := &graphGen{p: g.p, r: newRNG(branchSeed), next: g.next, amp: g.amp}
		streams := make([]sdf.Stream, width)
		gains := make([]ratio, width)
		used := 0
		per := (budget - 2) / width
		if per < 1 {
			per = 1
		}
		for b := 0; b < width; b++ {
			s, bg, bu := sub.stream(per, depth+1, false, unit)
			streams[b], gains[b] = s, bg
			used += bu
		}
		g.next = sub.next
		return streams, gains, used
	}

	branches, gains, used := branchGen(unitGain)
	joinW, ok := balanceJoin(splitW, gains)
	if !ok {
		branches, gains, used = branchGen(true)
		joinW, ok = balanceJoin(splitW, gains)
	}
	if !ok {
		// Even unit-gain branches could not be balanced within the weight
		// caps (split weights drawn beyond them); degrade to a chain, which
		// is always consistent.
		return g.chain(budget, atHead, unitGain)
	}

	name := fmt.Sprintf("sj%d", g.r.intn(1<<16))
	var s sdf.Stream
	var tokensIn int64
	if duplicate {
		s = sdf.Split(name, sdf.DuplicateSplitter(width, splitW[0]), sdf.RoundRobinJoiner(joinW), branches...)
		tokensIn = int64(splitW[0])
	} else {
		s = sdf.SplitRRRR(name, splitW, joinW, branches...)
		for _, w := range splitW {
			tokensIn += int64(w)
		}
	}
	// Output tokens per splitter firing: sum over branches of splitW_b *
	// gain_b (the join weights are proportional to exactly these).
	out := rat(0, 1)
	for b := range gains {
		out = out.add(gains[b].mul(rat(int64(splitW[b]), 1)))
	}
	sjGain := out.mul(rat(1, tokensIn))
	g.bumpAmp(sjGain)
	return s, sjGain, used + 2
}

// balanceJoin derives integral joiner weights proportional to splitW[b] *
// gain[b], the unique shape (up to scale) that makes the split-join's
// balance equations consistent. It reports failure when the weights would
// exceed sane token rates.
func balanceJoin(splitW []int, gains []ratio) ([]int, bool) {
	// v_b = splitW[b] * gain[b]; joinW = v * lcm(denominators) / gcd.
	lcm := int64(1)
	for b := range gains {
		d := gains[b].den
		lcm = lcm / gcd64(lcm, d) * d
		if lcm > 1<<20 {
			return nil, false
		}
	}
	joinW := make([]int, len(gains))
	g := int64(0)
	vals := make([]int64, len(gains))
	for b := range gains {
		v := int64(splitW[b]) * gains[b].num * (lcm / gains[b].den)
		if v <= 0 || v > 1<<20 {
			return nil, false
		}
		vals[b] = v
		g = gcd64(g, v)
	}
	var sum int64
	for b, v := range vals {
		v /= g
		if v > 48 {
			return nil, false
		}
		sum += v
		joinW[b] = int(v)
	}
	if sum > 128 {
		return nil, false
	}
	return joinW, true
}

// filter generates one leaf filter with a deterministic functional body.
func (g *graphGen) filter(atHead, unitGain bool) (sdf.Stream, ratio, int) {
	id := g.next
	g.next++

	pop := g.drawRate()
	push := pop
	if !unitGain && g.amp <= ampCap && g.r.bool(g.p.RateChangeProb) {
		push = g.drawRate()
	}
	peek := pop
	extra := 0
	if !atHead && g.r.bool(g.p.PeekProb) {
		extra = g.r.rangeInt(1, pop)
		peek = pop + extra
	}

	ops := int64(g.r.rangeInt(1, int(g.p.MaxOps)))
	if g.p.SkewWork {
		// Cube a uniform draw: ~87% of filters land in the cheapest eighth
		// of the range while the tail reaches MaxOps.
		u := g.r.float64()
		ops = 1 + int64(u*u*u*float64(g.p.MaxOps-1))
	}

	mul := 1 + sdf.Token(g.r.intn(7))*0.25
	add := sdf.Token(g.r.intn(5)) * 0.5
	p, q, k := pop, push, peek
	work := func(w *sdf.Work) {
		in := w.In[0]
		var acc sdf.Token
		for i := 0; i < k; i++ {
			acc += in[i]
		}
		acc /= sdf.Token(k)
		for j := 0; j < q; j++ {
			w.Out[0][j] = mul*in[j%p] + acc + add
		}
	}
	name := fmt.Sprintf("syn%d_%dto%dp%d", id, pop, push, peek)
	f := sdf.NewFilter(name, pop, push, peek, ops, work)

	g.bumpAmp(rat(int64(push), int64(pop)))
	s := sdf.F(f)
	if extra > 0 {
		// Prime the sliding window so a full steady iteration can fire.
		delay := make([]sdf.Token, extra)
		for i := range delay {
			delay[i] = sdf.Token((i*7 + 3) % 11)
		}
		s = sdf.WithDelay(s, delay)
	}
	return s, rat(int64(push), int64(pop)), 1
}
