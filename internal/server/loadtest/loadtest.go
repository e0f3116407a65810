// Package loadtest replays seeded synthetic compile traffic against a live
// compile server and reports throughput, latency, cache effectiveness and
// (optionally) artifact fidelity against local compilation. It is the
// repo's first end-to-end "heavy traffic" benchmark: a fleet of client
// workers, a target request rate, and scenario mixes that stress the
// serving layers differently —
//
//   - hot: a small hot set of keys under heavy skew; exercises coalescing
//     and the memory cache tier.
//   - unique: every request a distinct graph; exercises admission control
//     and raw pipeline throughput.
//   - mixed: half hot-set draws, half one-shot graphs; the realistic blend
//     (the generated pool also mixes device models, GPU counts,
//     partitioners and mappers, so no two keys cost the same).
//   - nodeloss: hot-set traffic during which a device fails mid-run; every
//     compile served after the failure is fed back through /v1/remap with
//     that artifact's last GPU removed, and the remapped plan is checked
//     for remap provenance. Exercises degraded serving under load.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/obs"
	"streammap/internal/pee"
	"streammap/internal/sdf"
	"streammap/internal/server"
	"streammap/internal/server/client"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// Mix names a traffic pattern.
type Mix string

// Traffic mixes.
const (
	MixHot      Mix = "hot"
	MixUnique   Mix = "unique"
	MixMixed    Mix = "mixed"
	MixNodeLoss Mix = "nodeloss"
)

// Params configures one load-test run.
type Params struct {
	Seed     uint64
	Requests int           // total requests (default 200)
	RPS      float64       // target offered rate; 0 = as fast as the fleet allows
	Fleet    int           // concurrent client workers (default 16)
	Mix      Mix           // hot | unique | mixed | nodeloss (default mixed)
	HotKeys  int           // hot-set size for hot/mixed (default 4)
	Timeout  time.Duration // per-request deadline (default 30s)

	// MaxFilters/MaxGPUs bound the generated scenarios (defaults 16 / 4):
	// small enough that a laptop-class machine sustains hundreds of
	// compiles, large enough to produce multi-partition mappings.
	MaxFilters int
	MaxGPUs    int

	// Verify locally compiles every distinct scenario that was served and
	// checks the served body is the local encoding, byte for byte. Costs one
	// local compile per unique key.
	Verify bool
}

func (p Params) withDefaults() Params {
	if p.Requests <= 0 {
		p.Requests = 200
	}
	if p.Fleet <= 0 {
		p.Fleet = 16
	}
	if p.Mix == "" {
		p.Mix = MixMixed
	}
	if p.HotKeys <= 0 {
		p.HotKeys = 4
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	if p.MaxFilters <= 0 {
		p.MaxFilters = 16
	}
	if p.MaxGPUs <= 0 {
		p.MaxGPUs = 4
	}
	return p
}

// Result is one run's report.
type Result struct {
	Params    Params
	Sent      int
	OK        int
	Throttled int // 429s — shed load, not failures
	Errors    int // transport errors and non-429 error statuses
	Unique    int // distinct request keys in the offered sequence

	Duration    time.Duration
	AchievedRPS float64
	P50MS       float64
	P95MS       float64
	P99MS       float64

	// MetricsBefore/MetricsAfter are the server's /metrics scrapes around
	// the run (nil when the endpoint was unreachable). Their delta
	// attributes every request to a serving layer and carries the
	// server-side latency histograms per route and per cache tier; Fprint
	// reports both.
	MetricsBefore, MetricsAfter obs.Samples

	// Remaps counts remap requests issued after the simulated device
	// failure (nodeloss mix only; not counted in Sent); RemapOK counts the
	// ones that came back as a valid remapped plan. A remap that returns an
	// invalid plan — or an error other than a 429 — lands in Errors;
	// remap 429s land in Throttled.
	Remaps  int
	RemapOK int

	// Verified counts unique served artifacts checked against local
	// compilation; VerifyErrors lists the mismatches (empty when Verify is
	// off or everything matched).
	Verified     int
	VerifyErrors []string

	FirstError string // first non-429 failure, for diagnosis
}

// Run replays the configured traffic against cl's server and reports.
func Run(ctx context.Context, cl *client.Client, p Params) (*Result, error) {
	p = p.withDefaults()

	// Scenario pool: hot traffic needs HotKeys scenarios, unique traffic
	// needs one per request, mixed needs the hot set plus one per one-shot
	// draw. The corpus params are derived once for the superset (a
	// scenario's identity is invariant to the pool size, so mixes share
	// their hot sets across runs); graphs are only built for the scenarios
	// the offered sequence actually references.
	poolSize := p.HotKeys + p.Requests
	corpus, err := synth.Corpus(synth.CorpusParams{
		Seed:       p.Seed,
		Scenarios:  poolSize,
		MaxFilters: p.MaxFilters,
		MaxGPUs:    p.MaxGPUs,
		Workers:    2,
	})
	if err != nil {
		return nil, err
	}

	// The offered sequence: scenario index per request. The hot set is the
	// pool's first HotKeys scenarios; one-shot draws walk the remainder.
	// synth's pinned generator, re-seeded off the corpus seed so the
	// request sequence is reproducible but independent of scenario draws.
	rng := synth.NewRand(p.Seed ^ 0xA5A5A5A5A5A5A5A5)
	seq := make([]int, p.Requests)
	nextUnique := p.HotKeys
	drawHot := func() int {
		// Skewed hot set: the hottest key takes ~70% of the set's traffic.
		if rng.Intn(100) < 70 {
			return 0
		}
		return rng.Intn(p.HotKeys)
	}
	for i := range seq {
		switch p.Mix {
		case MixHot, MixNodeLoss:
			seq[i] = drawHot()
		case MixUnique:
			seq[i] = nextUnique
			nextUnique++
		default: // mixed
			if rng.Intn(2) == 0 {
				seq[i] = drawHot()
			} else {
				seq[i] = nextUnique
				nextUnique++
			}
		}
	}
	reqs := map[int]server.CompileRequest{}
	for _, i := range seq {
		if _, ok := reqs[i]; ok {
			continue
		}
		g, err := corpus[i].BuildGraph()
		if err != nil {
			return nil, fmt.Errorf("loadtest: scenario %d: %w", i, err)
		}
		reqs[i] = server.NewRequest(g, corpus[i].Opts)
	}

	res := &Result{Params: p, Unique: len(reqs)}
	if m, err := cl.Metrics(ctx); err == nil {
		res.MetricsBefore = m
	}

	// Fleet workers drain a paced feed. Pacing happens on the feed, not in
	// the workers, so a slow response doesn't silently lower the offered
	// rate of everyone else (open-loop, up to the fleet size).
	//
	// For the nodeloss mix, deviceDown flips halfway through the offered
	// sequence — the simulated fleet event. From then on, every compile a
	// worker gets back is a plan for a machine that just lost a device, so
	// the worker feeds it straight back through /v1/remap (dropping the
	// artifact's last GPU) and checks the degraded plan it receives.
	// Compiles already in flight at the flip remap too: that is the point —
	// no in-flight request is stranded without a servable plan.
	feed := make(chan int)
	var deviceDown atomic.Bool
	var (
		mu        sync.Mutex
		latencies []float64
		served    = map[int][]byte{}
	)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < p.Fleet; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				rctx, cancel := context.WithTimeout(ctx, p.Timeout)
				t0 := time.Now()
				body, err := compileBody(rctx, cl, reqs[i])
				ms := float64(time.Since(t0).Microseconds()) / 1e3
				cancel()
				mu.Lock()
				res.Sent++
				switch {
				case err == nil:
					res.OK++
					latencies = append(latencies, ms)
					if _, ok := served[i]; !ok {
						served[i] = body
					}
				default:
					if _, ok := client.IsThrottled(err); ok {
						res.Throttled++
					} else {
						res.Errors++
						if res.FirstError == "" {
							res.FirstError = err.Error()
						}
					}
				}
				mu.Unlock()
				if gpus := len(reqs[i].Options.Topo.GPUNodes); err == nil && deviceDown.Load() && gpus >= 2 {
					remapServed(ctx, cl, body, gpus, p.Timeout, &mu, res)
				}
			}
		}()
	}
	var interval time.Duration
	if p.RPS > 0 {
		interval = time.Duration(float64(time.Second) / p.RPS)
	}
	tick := start
feedLoop:
	for pos, i := range seq {
		if p.Mix == MixNodeLoss && pos == len(seq)/2 {
			deviceDown.Store(true)
		}
		select {
		case feed <- i:
		case <-ctx.Done():
			break feedLoop
		}
		if interval > 0 {
			tick = tick.Add(interval)
			if d := time.Until(tick); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break feedLoop
				}
			}
		}
	}
	close(feed)
	wg.Wait()
	res.Duration = time.Since(start)
	if secs := res.Duration.Seconds(); secs > 0 {
		res.AchievedRPS = float64(res.Sent) / secs
	}
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		rank := func(q float64) float64 { return latencies[int(q*float64(n-1)+0.5)] }
		res.P50MS, res.P95MS, res.P99MS = rank(0.50), rank(0.95), rank(0.99)
	}
	if m, err := cl.Metrics(ctx); err == nil {
		res.MetricsAfter = m
	}
	// A remap re-targets a plan; it never re-runs the pipeline. Each fresh
	// compile adds one observation per stage to the server's histogram, so
	// a partition or map pass beyond the run's compiles is a remap's.
	if res.Remaps > 0 && res.MetricsBefore != nil && res.MetricsAfter != nil {
		d := res.MetricsAfter.Delta(res.MetricsBefore)
		compiles := count(d, "streammap_compile_seconds_count")
		for _, st := range []string{"partition", "map"} {
			if n := count(d, "streammap_stage_duration_seconds_count", obs.Label{Key: "stage", Value: st}); n > compiles {
				res.Errors++
				if res.FirstError == "" {
					res.FirstError = fmt.Sprintf("remap: %d %s passes ran for %d fresh compiles", n, st, compiles)
				}
			}
		}
	}

	if p.Verify {
		res.Verified = len(served)
		for i, body := range served {
			local, err := localArtifact(ctx, reqs[i])
			if err != nil {
				res.VerifyErrors = append(res.VerifyErrors, fmt.Sprintf("scenario %d: local compile: %v", i, err))
				continue
			}
			if err := sameBytes(local, body); err != nil {
				res.VerifyErrors = append(res.VerifyErrors, fmt.Sprintf("scenario %d: served artifact differs: %v", i, err))
			}
		}
		sort.Strings(res.VerifyErrors)
	}
	return res, nil
}

// compileBody posts req to cl's server over cl's transport and returns the
// response body as served: the referees hold it to a reference encoding
// with sameBytes, so nothing decodes it. Failures take the client's shapes
// (a 429 is *client.Throttled).
func compileBody(ctx context.Context, cl *client.Client, req server.CompileRequest) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.BaseURL+"/v1/compile", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hc := cl.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil || resp.StatusCode == http.StatusOK:
		return body, err
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, &client.Throttled{Message: string(body)}
	default:
		return nil, &client.StatusError{Status: resp.StatusCode, Message: string(body)}
	}
}

// sameBytes holds a served body to its reference encoding: a key determines
// its bytes, so equality is bytes.Equal and neither side is decoded. A
// mismatch is placed by byte and by line of the indented JSON.
func sameBytes(ref, body []byte) error {
	if bytes.Equal(ref, body) {
		return nil
	}
	i := 0
	for i < len(ref) && i < len(body) && ref[i] == body[i] {
		i++
	}
	return fmt.Errorf("the %d bytes served part from the reference's %d at byte %d (line %d)",
		len(body), len(ref), i, 1+bytes.Count(ref[:i], []byte("\n")))
}

// remapServed feeds one compile response, as served, back through
// /v1/remap with the last of its machine's gpus removed and records the
// outcome under mu. Every response must be a valid plan for the degraded
// machine with remap provenance.
func remapServed(ctx context.Context, cl *client.Client, body []byte, gpus int, timeout time.Duration, mu *sync.Mutex, res *Result) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	ra, err := cl.Remap(rctx, server.RemapRequest{
		Artifact:    body,
		Degradation: topology.Degradation{RemoveGPUs: []int{gpus - 1}},
	})
	cancel()
	if err == nil {
		err = validRemap(gpus, ra)
	}
	mu.Lock()
	defer mu.Unlock()
	res.Remaps++
	switch {
	case err == nil:
		res.RemapOK++
	default:
		if _, ok := client.IsThrottled(err); ok {
			res.Throttled++
			return
		}
		res.Errors++
		if res.FirstError == "" {
			res.FirstError = "remap: " + err.Error()
		}
	}
}

// validRemap checks a remapped artifact against the gpus-device machine its
// original was compiled for: remap provenance present and pointing back at
// that machine, one device gone. (artifact.Decode already validated the
// plan's internal consistency client-side; that no pipeline stage re-ran is
// read off the server's stage histogram once the run is over.)
func validRemap(gpus int, ra *artifact.Artifact) error {
	if ra.Remap == nil {
		return fmt.Errorf("remapped artifact carries no remap provenance")
	}
	if got := len(ra.Remap.FromTopo.GPUNodes); got != gpus {
		return fmt.Errorf("remap provenance records a %d-GPU origin, want %d", got, gpus)
	}
	if got := len(ra.Options.Topo.GPUNodes); got != gpus-1 {
		return fmt.Errorf("remapped topology has %d GPUs, want %d", got, gpus-1)
	}
	return nil
}

// localArtifact compiles a wire request locally and encodes it — the bytes
// a server must answer that request with.
func localArtifact(ctx context.Context, req server.CompileRequest) ([]byte, error) {
	g, err := sdf.ImportGraph(req.Graph)
	if err != nil {
		return nil, err
	}
	opts, err := driver.ImportOptions(req.Options)
	if err != nil {
		return nil, err
	}
	opts.Workers = 2
	c, err := driver.Compile(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	a, err := c.Artifact()
	if err != nil {
		return nil, err
	}
	return a.Encode()
}

// Fprint renders the run report.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "loadtest: mix=%s requests=%d fleet=%d target-rps=%.0f seed=%#x\n",
		r.Params.Mix, r.Params.Requests, r.Params.Fleet, r.Params.RPS, r.Params.Seed)
	fmt.Fprintf(w, "  sent %d in %.2fs (%.1f req/s): %d ok, %d throttled, %d errors, %d unique graphs\n",
		r.Sent, r.Duration.Seconds(), r.AchievedRPS, r.OK, r.Throttled, r.Errors, r.Unique)
	fmt.Fprintf(w, "  latency p50 %.2fms  p95 %.2fms  p99 %.2fms\n", r.P50MS, r.P95MS, r.P99MS)
	if r.Params.Mix == MixNodeLoss {
		fmt.Fprintf(w, "  nodeloss: %d remaps issued after device failure, %d valid degraded plans\n", r.Remaps, r.RemapOK)
	}
	r.fprintMetrics(w)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
	for _, v := range r.VerifyErrors {
		fmt.Fprintf(w, "  VERIFY FAIL: %s\n", v)
	}
	if r.Params.Verify && len(r.VerifyErrors) == 0 {
		fmt.Fprintf(w, "  verify: all %d unique served artifacts identical to local compiles\n", r.Verified)
	}
}

// count reads one counter sample as the integer it is; an absent series
// counts zero.
func count(m obs.Samples, name string, labels ...obs.Label) int64 {
	v, _ := m.Get(name, labels...)
	return int64(v)
}

func routeLabel(v string) obs.Label { return obs.Label{Key: "route", Value: v} }
func tierLabel(v string) obs.Label  { return obs.Label{Key: "tier", Value: v} }

// fprintMetrics renders the server's view of the run from the /metrics
// delta, so every number is this run's and not the daemon's lifetime:
// which layer answered, what the estimation engine did, and p50/p99 per
// request route and per cache tier, plus admission wait. The latencies are
// the server's own histograms, so they include work the client never timed
// (coalesced joiners, detached compiles) and exclude network time — the
// complement of the client-side percentiles above.
func (r *Result) fprintMetrics(w io.Writer) {
	if r.MetricsBefore == nil || r.MetricsAfter == nil {
		return
	}
	d := r.MetricsAfter.Delta(r.MetricsBefore)
	fmt.Fprintf(w, "  server: +%d compiles, +%d memory hits, +%d disk hits, +%d coalesced, +%d rejected\n",
		count(d, "streammap_cache_misses_total"),
		count(d, "streammap_cache_hits_total", tierLabel("memory")), count(d, "streammap_cache_hits_total", tierLabel("disk")),
		count(d, "streammap_coalesced_total"), count(d, "streammap_rejected_total"))
	engine := pee.Stats{
		Queries: count(d, "streammap_engine_queries_total"),
		Misses:  count(d, "streammap_engine_misses_total"),
	}
	fmt.Fprintf(w, "  engine: %d queries at %.1f%% hit rate\n", engine.Queries, engine.HitRate()*100)
	line := func(label, name string, labels ...obs.Label) {
		n, _ := d.Get(name+"_count", labels...)
		if n <= 0 {
			return
		}
		p50, _ := d.Quantile(name, 0.50, labels...)
		p99, _ := d.Quantile(name, 0.99, labels...)
		fmt.Fprintf(w, "    %-16s %6.0f obs  p50 %8.2fms  p99 %8.2fms\n", label, n, p50*1e3, p99*1e3)
	}
	fmt.Fprintf(w, "  metrics (server-side, this run):\n")
	line("route compile", "streammap_request_duration_seconds", routeLabel("compile"))
	line("route remap", "streammap_request_duration_seconds", routeLabel("remap"))
	line("admission wait", "streammap_admission_wait_seconds")
	line("tier disk", "streammap_cache_probe_seconds", tierLabel("disk"))
	line("tier store", "streammap_cache_probe_seconds", tierLabel("store"))
	line("compile (fresh)", "streammap_compile_seconds")
}
