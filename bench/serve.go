package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/driver"
	"streammap/internal/obs"
	"streammap/internal/synth"
)

// serveSpec is one serving workload: a traffic mix against a real
// streammapd subprocess over loopback.
type serveSpec struct {
	name   string
	why    string // one line for BENCHMARK.json
	keys   int    // pre-warmed hot set (serve-disk: the working set)
	strata int    // size strata the keys are spread over
	// lru, when set, makes the workload a disk-tier one: the keys are
	// compiled through a first daemon, which is stopped, and the measured
	// daemon starts on the same cache dir with this many memory entries —
	// fewer than keys, replayed cyclically, so every request misses memory
	// and hits disk.
	lru int
	// rate, when set, makes the loop open: that many requests per second
	// arrive on a seeded schedule whether or not earlier ones finished,
	// uniqueShare of them one-shot graphs the daemon has never seen.
	rate        float64
	uniqueShare float64
	reps        int // how many times a run sets up; setup_s is the median
}

// The shape of serve-mixed was set on the seed commit for repeatability, on
// the 2-core reference box. At 40–60 % daemon CPU with the full 16–400
// filter range of unique graphs, a hit either found a free core or queued
// behind a compile, and the median request sat on the boundary between the
// two: runs of one seed differed by ±30 % in latency_p50_ms, more than any
// bound allows. Three things make it steady: unique graphs stop at
// uniqueMaxFilters (fresh compiles of 5–100 ms, so no single compile holds
// a slot for a quarter second), each compile gets one worker (two admitted
// compiles then fill the two cores and no more, where the default of two
// workers each oversubscribes them), and 40 requests a second keep the
// daemon near a quarter of the machine. Admission is still on the path —
// server.admission_wait_mean_ms and loadgen.hit_p50_ms against serve-hot's
// latency_p50_ms show hits waiting behind compiles — but the backlog is
// short enough to repeat.
const (
	mixedRate        = 40
	uniqueMaxFilters = 200
)

var serveSpecs = []serveSpec{
	{name: "serve-hot", keys: 12, strata: 12, reps: 3,
		why: "Closed loop, one client per core, 12 pre-warmed keys of 16-400 filters: every request is a memory-tier hit, so body decode, graph import, key and response write are the cost; the pipeline is bypassed."},
	{name: "serve-disk", keys: 64, strata: 16, lru: 16, reps: 1,
		why: "Closed loop over 64 keys after a daemon restart with a 16-entry LRU, cyclic order: every request misses memory and hits the disk tier (decode, rehydrate, re-encode); a lost persist shows as a compile."},
	{name: "serve-mixed", keys: 8, strata: 8, rate: mixedRate, uniqueShare: 0.25, reps: 1,
		why: "Open loop, seeded arrivals at 40/s, 75% draws from 8 hot keys, 25% never-seen graphs: fresh compiles hold an admission slot and a core each while hits arrive behind them; persist is on the path."},
}

// corpusSeed names the graph population of the serving workloads. Like the
// paper apps of compile-apps it is part of the benchmark's definition: the
// cost of serving a set of graphs depends on which graphs they are (a run
// over another twelve-key draw of the same corpus differs by ±10 % in
// req_per_s), so a population that changed with -seed could not be held to
// a 10 % bound. -seed decides everything else: which hot key each request
// asks for, when requests arrive, and which unique graph arrives when.
const corpusSeed = 1

const (
	uniqueStrata    = 10
	sloLimit        = 500 * time.Millisecond // about twice the heaviest uncontended fresh compile in the corpus
	requestTimeout  = 30 * time.Second
	persistDeadline = 10 * time.Second
	verifyUniques   = 32
)

// serveEnv is a set-up serving workload: corpus compiled, daemon warm.
type serveEnv struct {
	spec        serveSpec
	work        string // scratch dir; holds the daemon's cache dir
	cacheDir    string
	d           *daemon
	hc          *http.Client
	hot, unique []*scenario
	schedule    []arrival
	infeasible  int
	persistWait time.Duration
}

func (e *serveEnv) teardown() {
	if e.d != nil {
		e.d.kill()
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	os.RemoveAll(e.work)
}

// setupServe does everything before the timed window: corpus generation
// and reference compiles, daemon start, warm-up, and for the disk workload
// the populate–stop–restart cycle. On error nothing is left behind.
func setupServe(ctx context.Context, cfg *config, spec serveSpec) (env *serveEnv, err error) {
	env = &serveEnv{spec: spec}
	if env.work, err = os.MkdirTemp(cfg.tmp, spec.name+"-*"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			env.teardown()
			env = nil
		}
	}()
	env.cacheDir = filepath.Join(env.work, "cache")
	nproc := runtime.GOMAXPROCS(0)
	env.hc = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * nproc},
	}

	if env.hot, env.infeasible, err = pick(ctx, corpusSeed, spec.keys, spec.strata, corpusMinFilters, corpusMaxFilters); err != nil {
		return env, err
	}
	if spec.rate > 0 {
		env.schedule = poissonSchedule(cfg.seed, spec.rate, cfg.seconds, spec.uniqueShare, spec.keys)
		uniques := 0
		for _, a := range env.schedule {
			if a.class == classUnique {
				uniques++
			}
		}
		need := (uniques + uniqueStrata - 1) / uniqueStrata * uniqueStrata
		var dropped int
		if env.unique, dropped, err = pick(ctx, corpusSeed^0x0ddba11, need, uniqueStrata, corpusMinFilters, uniqueMaxFilters); err != nil {
			return env, err
		}
		env.infeasible += dropped
		// The seed decides which unique graph arrives when.
		drawn := env.unique
		env.unique = nil
		for _, i := range sample(synth.NewRand(cfg.seed^0x0ddba11), len(drawn), len(drawn)) {
			env.unique = append(env.unique, drawn[i])
		}
	}

	var flags []string
	if spec.rate > 0 {
		flags = []string{"-compile-workers", "1"} // see mixedRate
	}
	if env.d, err = startDaemon(ctx, cfg.bin, env.work, env.cacheDir, flags...); err != nil {
		return env, err
	}

	// Warm-up: every hot key once, which compiles and persists it.
	recs := closedLoop(ctx, env, 0, true, len(env.hot), time.Hour, false)
	for _, r := range recs {
		if r.status != http.StatusOK {
			return env, fmt.Errorf("%s: warm-up request answered %d", spec.name, r.status)
		}
	}
	// The daemon persists after it answers and offers no flush barrier, so
	// the barrier is taken from the directory.
	if env.persistWait, err = waitFiles(ctx, env.cacheDir, len(env.hot)); err != nil {
		return env, err
	}
	if spec.lru > 0 {
		if _, err = env.d.stop(); err != nil {
			return env, err
		}
		env.hc.CloseIdleConnections()
		if env.d, err = startDaemon(ctx, cfg.bin, env.work, env.cacheDir, "-cache-entries", fmt.Sprint(spec.lru)); err != nil {
			return env, err
		}
	}
	return env, nil
}

// waitFiles waits until dir holds n persisted artifacts.
func waitFiles(ctx context.Context, dir string, n int) (time.Duration, error) {
	start := time.Now()
	for {
		entries, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		have := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".artifact.json") {
				have++
			}
		}
		if have >= n {
			return time.Since(start), nil
		}
		if time.Since(start) > persistDeadline {
			return 0, fmt.Errorf("persist wait: %d of %d artifacts in %s after %v", have, n, dir, persistDeadline)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// reqRecord is what the generator keeps per request; spans are made from
// it after the window.
type reqRecord struct {
	due, sent, wrote, first, done time.Time
	status                        int // 0 = transport error
	class                         int
	traced                        bool
	bytesOut, bytesIn             int
}

func (r *reqRecord) ok() bool { return r.status == http.StatusOK }

// do posts one pre-marshalled request and discards the response body
// undecoded. With tracing on it also notes when the request was written
// and when the first response byte arrived.
func (e *serveEnv) do(ctx context.Context, sc *scenario, rec *reqRecord) {
	if rec.traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { rec.wrote = time.Now() },
			GotFirstResponseByte: func() { rec.first = time.Now() },
		})
	}
	rec.bytesOut = len(sc.body)
	rec.sent = time.Now()
	if rec.due.IsZero() {
		rec.due = rec.sent
	}
	defer func() { rec.done = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.d.url+"/v1/compile", bytes.NewReader(sc.body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.hc.Do(req)
	if err != nil {
		return
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.bytesIn = int(n)
	if err == nil {
		rec.status = resp.StatusCode
	}
}

// closedLoop runs one client per core, each sending its next request only
// when the previous one completed, until `limit` requests were sent or
// `dur` passed. Each client draws hot keys uniformly from its own stream
// seeded from seed, or, with cyclic set, the clients together replay the
// keys in fixed cyclic order. With trace on, every other request is traced.
func closedLoop(ctx context.Context, e *serveEnv, seed uint64, cyclic bool, limit int, dur time.Duration, trace bool) []reqRecord {
	clients := runtime.GOMAXPROCS(0)
	perClient := make([][]reqRecord, clients)
	var cursor atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := synth.NewRand(seed + uint64(c+1)*0x9e3779b97f4a7c15)
			for ctx.Err() == nil && time.Now().Before(deadline) {
				n := int(cursor.Add(1)) - 1
				if n >= limit {
					return
				}
				k := n % len(e.hot)
				if !cyclic {
					k = r.Intn(len(e.hot))
				}
				// Every other request, shifted by one each time round the
				// keys so that cyclic order traces every key as often as not.
				rec := reqRecord{traced: trace && (n+n/len(e.hot))%2 == 1}
				e.do(ctx, e.hot[k], &rec)
				perClient[c] = append(perClient[c], rec)
			}
		}()
	}
	wg.Wait()
	var out []reqRecord
	for _, rs := range perClient {
		out = append(out, rs...)
	}
	return out
}

// openLoop sends the schedule: each request at its due time whether or not
// earlier ones finished, with at most 4 per core outstanding (they are
// blocked on I/O, not running). When all are busy the send is late, and
// since latency counts from the due time the lateness is in it. With trace
// on, every other request is traced.
func openLoop(ctx context.Context, e *serveEnv, trace bool) []reqRecord {
	recs := make([]reqRecord, len(e.schedule))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4*runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				a := e.schedule[i]
				set := e.hot
				if a.class == classUnique {
					set = e.unique
				}
				e.do(ctx, set[a.key], &recs[i])
			}
		}()
	}
	start := time.Now()
dispatch:
	for i, a := range e.schedule {
		due := start.Add(time.Duration(a.dueS * float64(time.Second)))
		recs[i] = reqRecord{due: due, class: a.class, traced: trace && i%2 == 1}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				break dispatch
			case <-time.After(wait):
			}
		}
		select {
		case feed <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	return recs
}

// runServe runs one serving workload end to end and fills res.
func runServe(ctx context.Context, cfg *config, spec serveSpec, res *result, rec *recorder) error {
	var env *serveEnv
	var setups []float64
	for i := 0; i < spec.reps; i++ {
		if env != nil {
			env.teardown()
		}
		start := time.Now()
		var err error
		if env, err = setupServe(ctx, cfg, spec); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.teardown()
	res.setN("setup_s", cfg.buildS+median(setups), len(setups), "")

	// The measured period.
	before, err := scrape(env)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(env.d.pid())
	if err != nil {
		return err
	}
	self0 := selfCPU()
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var recs []reqRecord
	if spec.rate > 0 {
		recs = openLoop(ctx, env, cfg.trace)
	} else {
		recs = closedLoop(ctx, env, cfg.seed, spec.lru > 0, math.MaxInt, window, cfg.trace)
	}
	wall := time.Since(start)
	cpu1, err := procCPU(env.d.pid())
	if err != nil {
		return err
	}
	selfCPUs := (selfCPU() - self0).Seconds()
	after, err := scrape(env)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	hwm, err := procHWM(env.d.pid())
	if err != nil {
		return err
	}

	serverCPU := cpu1 - cpu0
	clientMetrics(res, spec, recs, wall, serverCPU, hwm)
	res.set("loadgen.cpu_s", selfCPUs)
	res.set("loadgen.corpus_infeasible", float64(env.infeasible))
	res.set("core.persist_wait_ms", ms(env.persistWait))
	res.set("server.cpu_util", serverCPU.Seconds()/wall.Seconds())
	if selfCPUs >= serverCPU.Seconds() {
		res.problem("the generator used %.2fs of CPU, not less than the daemon's %.2fs", selfCPUs, serverCPU.Seconds())
	}
	scrapeMetrics(res, after.Delta(before))
	if spec.uniqueShare == 0 {
		// Every key was compiled before the window; a compile inside it
		// means a cache tier lost an entry (after a restart: a write).
		if m, ok := res.Metrics["core.recompiles"]; ok && m.Value != 0 {
			res.problem("%v compiles ran inside a window of pre-warmed keys", m.Value)
		}
	}

	// Correctness gate, outside the window.
	if err := verifyServed(ctx, env, recs, res); err != nil {
		return err
	}

	drain, err := env.d.stop()
	if err != nil {
		res.problem("%v", err)
	}
	res.set("server.drain_ms", ms(drain))

	if cfg.trace {
		requestSpans(rec, recs)
		if err := replayServe(ctx, rec, res, env, recs); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// clientMetrics derives the end-to-end and loadgen metrics from the
// request records.
func clientMetrics(res *result, spec serveSpec, recs []reqRecord, wall, serverCPU time.Duration, hwmMB float64) {
	var lat, late, write, ttfb, read, out, in []float64
	byClass := [2][]float64{}
	hitByTrace := map[bool][]float64{} // hot-set latencies, traced or not
	ok, shed, inSLO := 0, 0, 0
	for i := range recs {
		r := &recs[i]
		if r.sent.IsZero() {
			continue // never dispatched: the run was cancelled
		}
		res.Attempted++
		late = append(late, ms(r.sent.Sub(r.due)))
		out = append(out, float64(r.bytesOut))
		switch {
		case r.ok():
			ok++
			l := r.done.Sub(r.due)
			lat = append(lat, ms(l))
			byClass[r.class] = append(byClass[r.class], ms(l))
			if r.class == classHot {
				hitByTrace[r.traced] = append(hitByTrace[r.traced], ms(l))
			}
			in = append(in, float64(r.bytesIn))
			if l <= sloLimit {
				inSLO++
			}
			if r.traced && !r.wrote.IsZero() && !r.first.IsZero() {
				write = append(write, ms(r.wrote.Sub(r.sent)))
				ttfb = append(ttfb, ms(r.first.Sub(r.wrote)))
				read = append(read, ms(r.done.Sub(r.first)))
			}
		case r.status == http.StatusTooManyRequests:
			shed++
		default:
			res.Failed++
		}
	}
	sent := float64(res.Attempted)
	p99, pct := tail(lat)
	res.setN("req_per_s", float64(ok)/wall.Seconds(), ok, "")
	res.setN("latency_p50_ms", median(lat), len(lat), "")
	res.setN("loadgen.latency_p99_ms", p99, len(lat), fmt.Sprintf("p%.4g", pct))
	res.setN("cpu_ms_per_req", ms(serverCPU)/float64(ok), ok, "")
	res.set("peak_rss_mb", hwmMB)

	res.set("loadgen.sent", sent)
	res.set("loadgen.ok", float64(ok))
	res.set("loadgen.shed", float64(shed))
	res.set("loadgen.failed", float64(res.Failed))
	res.set("loadgen.fail_share", float64(res.Failed)/sent)
	res.set("loadgen.slo_miss_share", (sent-float64(inSLO))/sent)
	res.set("loadgen.req_bytes_mean", mean(out))
	res.set("loadgen.resp_bytes_mean", mean(in))
	if spec.rate > 0 {
		l99, _ := tail(late)
		res.set("loadgen.late_p99_ms", l99)
		res.setN("loadgen.hit_p50_ms", median(byClass[classHot]), len(byClass[classHot]), "")
		res.setN("loadgen.fresh_p50_ms", median(byClass[classUnique]), len(byClass[classUnique]), "")
	}
	if plain, traced := median(hitByTrace[false]), median(hitByTrace[true]); plain > 0 && traced > 0 {
		// Every other request was traced, so both kinds met the same
		// daemon at the same time. On a closed loop throughput is clients
		// over latency, so this is also the share of req_per_s tracing costs.
		res.setN("loadgen.trace_overhead_share", (traced-plain)/plain, len(hitByTrace[true]), "median latency of hot-set requests, traced against untraced")
	}
	if len(write) > 0 {
		res.setN("loadgen.write_request_mean_ms", mean(write), len(write), "")
		res.setN("loadgen.ttfb_mean_ms", mean(ttfb), len(ttfb), "")
		res.setN("loadgen.read_body_mean_ms", mean(read), len(read), "")
	}
	if res.Failed > 0 {
		res.problem("%d of %d requests failed (neither 200 nor 429)", res.Failed, res.Attempted)
	}
}

// scrape reads the daemon's /metrics. Only /metrics is used, never /stats.
func scrape(e *serveEnv) (obs.Samples, error) {
	resp, err := e.hc.Get(e.d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseText(b)
}

// histMeanMS is a histogram's mean over a scrape delta, in milliseconds,
// from its _sum and _count. ok is false when the family is absent; a
// present family with no observations has mean 0.
func histMeanMS(d obs.Samples, name string, labels ...obs.Label) (float64, bool) {
	sum, ok1 := d.Get(name+"_sum", labels...)
	count, ok2 := d.Get(name+"_count", labels...)
	if !ok1 || !ok2 {
		return 0, false
	}
	if count == 0 {
		return 0, true
	}
	return sum / count * 1e3, true
}

// scrapeMetrics turns a /metrics delta into the server, core and driver
// metrics. A family the daemon does not export is left unset (reported
// "absent"), not an error.
func scrapeMetrics(res *result, d obs.Samples) {
	label := func(k, v string) obs.Label { return obs.Label{Key: k, Value: v} }
	counter := func(metric, family string, labels ...obs.Label) (float64, bool) {
		v, ok := d.Get(family, labels...)
		if ok {
			res.set(metric, v)
		}
		return v, ok
	}
	hist := func(metric, family string, labels ...obs.Label) {
		if v, ok := histMeanMS(d, family, labels...); ok {
			res.set(metric, v)
		}
	}
	requests, _ := counter("server.requests", "streammap_http_requests_total", label("route", "compile"))
	counter("server.responses_429", "streammap_rejected_total")
	counter("server.responses_5xx", "streammap_http_responses_total", label("class", "5xx"), label("route", "compile"))
	counter("server.coalesced", "streammap_coalesced_total")
	encodes, okE := counter("server.artifact_encodes", "streammap_artifact_encodes_total")
	hist("server.handler_mean_ms", "streammap_request_duration_seconds", label("route", "compile"))
	hist("server.admission_wait_mean_ms", "streammap_admission_wait_seconds")

	counter("core.memory_hits", "streammap_cache_hits_total", label("tier", "memory"))
	counter("core.disk_hits", "streammap_cache_hits_total", label("tier", "disk"))
	recompiles, okR := counter("core.recompiles", "streammap_cache_misses_total")
	counter("core.disk_writes", "streammap_cache_writes_total", label("tier", "disk"))
	counter("core.disk_errors", "streammap_cache_errors_total", label("tier", "disk"))
	counter("core.evictions", "streammap_cache_evictions_total")
	hist("core.probe_disk_mean_ms", "streammap_cache_probe_seconds", label("tier", "disk"))
	if okR && requests > 0 {
		// Requests answered without running the pipeline: tier hits and
		// the requests coalesced onto them.
		res.set("core.hit_ratio", 1-recompiles/requests)
	}
	if okE && okR && recompiles > 0 {
		res.set("core.encodes_per_recompile", encodes/recompiles)
	}

	hist("driver.compile_mean_ms", "streammap_compile_seconds")
	for _, st := range []string{"profile", "partition", "pdg", "map", "plan"} {
		hist("driver.stage_"+st+"_ms", "streammap_stage_duration_seconds", label("stage", st))
	}
}

// verifyServed is the serving correctness gate: every hot key, and a
// seeded sample of the unique graphs that were sent, is fetched once more
// and must be equivalent to what the library compiled locally during
// set-up. (Byte equality would be wrong: an artifact served from the disk
// tier legitimately carries no stage provenance.)
func verifyServed(ctx context.Context, e *serveEnv, recs []reqRecord, res *result) error {
	for _, sc := range e.checkSet(recs, res.Seed) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.d.url+"/v1/compile", bytes.NewReader(sc.body))
		if err != nil {
			return err
		}
		resp, err := e.hc.Do(req)
		if err != nil {
			return fmt.Errorf("verify %s: %w", sc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("verify %s: %w", sc.name, err)
		}
		if resp.StatusCode != http.StatusOK {
			res.problem("verify %s: status %d", sc.name, resp.StatusCode)
			continue
		}
		got, err := artifact.Decode(body)
		if err != nil {
			res.problem("verify %s: served bytes do not decode: %v", sc.name, err)
			continue
		}
		if err := driver.EquivalentArtifacts(sc.ref, got); err != nil {
			res.problem("verify %s: served artifact differs from the local compile: %v", sc.name, err)
		}
	}
	return nil
}

// checkSet is the distinct requests the gate and the replay look at: every
// hot key and a seeded sample of the unique graphs that were sent.
func (e *serveEnv) checkSet(recs []reqRecord, seed uint64) []*scenario {
	set := append([]*scenario(nil), e.hot...)
	sentUniques := 0
	for i, a := range e.schedule {
		if a.class == classUnique && !recs[i].sent.IsZero() {
			sentUniques = a.key + 1
		}
	}
	for _, i := range sample(synth.NewRand(seed^0x5a3b1e), sentUniques, verifyUniques) {
		set = append(set, e.unique[i])
	}
	return set
}

// requestSpans turns the traced requests' records into spans:
// request (due → done) ⊃ loadgen.wait · http.write_request · server.ttfb ·
// http.read_body.
func requestSpans(rec *recorder, recs []reqRecord) {
	for i := range recs {
		r := &recs[i]
		if !r.traced || !r.ok() || r.wrote.IsZero() || r.first.IsZero() {
			continue
		}
		id := i + 1
		root := rec.add("request", 0, id, r.due, r.done)
		rec.add("loadgen.wait", root, id, r.due, r.sent)
		rec.add("http.write_request", root, id, r.sent, r.wrote)
		rec.add("server.ttfb", root, id, r.wrote, r.first)
		rec.add("http.read_body", root, id, r.first, r.done)
	}
}
