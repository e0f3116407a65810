package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"streammap/internal/obs"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return v
	}
	for _, tc := range []struct {
		n       int
		value   float64
		percent float64
	}{
		{5000, 4950, 99},                // p99 has 50 beyond it
		{1001, 991, 100 * 991.0 / 1001}, // ceil(0.99*1001)=991, exactly 10 beyond
		{1000, 990, 99},                 // p99 = 990th, exactly 10 beyond
		{400, 390, 97.5},                // p99 would leave 4 beyond; step down to 10
		{11, 1, 100.0 / 11},             // the only value with 10 beyond is the minimum
		{10, 10, 100},                   // nothing has 10 beyond: the maximum
		{1, 1, 100},
	} {
		v, p := tail(seq(tc.n))
		if v != tc.value || math.Abs(p-tc.percent) > 1e-9 {
			t.Errorf("n=%d: got value %v at p%v, want %v at p%v", tc.n, v, p, tc.value, tc.percent)
		}
	}
	if v, p := tail(nil); v != 0 || p != 0 {
		t.Errorf("no samples: got %v at p%v", v, p)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
}

func TestPoissonScheduleIsAPureFunctionOfItsSeed(t *testing.T) {
	a := poissonSchedule(7, 40, 10, 0.25, 8)
	b := poissonSchedule(7, 40, 10, 0.25, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if c := poissonSchedule(8, 40, 10, 0.25, 8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != 400 {
		t.Fatalf("%d arrivals, want rate*seconds = 400", len(a))
	}
	uniques, last := 0, -1.0
	for i, x := range a {
		if x.dueS < last || x.dueS < 0 || x.dueS >= 10 {
			t.Fatalf("arrival %d due at %v after %v: not sorted inside the window", i, x.dueS, last)
		}
		last = x.dueS
		switch x.class {
		case classUnique:
			if x.key != uniques {
				t.Fatalf("unique arrival %d numbered %d, want arrival order %d", i, x.key, uniques)
			}
			uniques++
		case classHot:
			if x.key < 0 || x.key >= 8 {
				t.Fatalf("hot arrival %d asks for key %d of 8", i, x.key)
			}
		}
	}
	if uniques != 100 {
		t.Fatalf("%d unique arrivals, want exactly a quarter of 400", uniques)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (stream mapd) x)) S 1 4242 4242 0 -1 4194560 1861 0 0 0 " +
		"1234 66 0 0 20 0 9 0 5125 1271042048 8404 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13 * time.Second; got != want { // (1234+66) ticks at 100 Hz
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("truncated stat parsed")
	}
	if _, err := parseStatCPU("no command field"); err == nil {
		t.Error("stat without a command field parsed")
	}
}

func TestParseProcStatusHWM(t *testing.T) {
	const status = "Name:\tstreammapd\nVmPeak:\t 1241252 kB\nVmHWM:\t   33792 kB\nVmRSS:\t   30000 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 33 {
		t.Errorf("VmHWM = %v MB, want 33", got)
	}
	if _, err := parseStatusHWM("Name:\tx\nVmRSS:\t1 kB\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseStatusHWM("VmHWM:\t12 pages\n"); err == nil {
		t.Error("VmHWM in an unknown unit parsed")
	}
}

func TestHistogramMeanFromScrapeDelta(t *testing.T) {
	golden, err := os.ReadFile("../internal/obs/testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	before, err := obs.ParseText(golden)
	if err != nil {
		t.Fatal(err)
	}
	// The golden exposition has 5 compile requests summing to 5.56 s. Two
	// more arrive, taking 0.44 s together.
	later := strings.NewReplacer(
		`streammap_request_duration_seconds_sum{route="compile"} 5.56`, `streammap_request_duration_seconds_sum{route="compile"} 6`,
		`streammap_request_duration_seconds_count{route="compile"} 5`, `streammap_request_duration_seconds_count{route="compile"} 7`,
	).Replace(string(golden))
	after, err := obs.ParseText([]byte(later))
	if err != nil {
		t.Fatal(err)
	}
	route := obs.Label{Key: "route", Value: "compile"}
	got, ok := histMeanMS(after.Delta(before), "streammap_request_duration_seconds", route)
	if !ok || math.Abs(got-220) > 1e-6 {
		t.Errorf("mean over the delta = %v ms (present %v), want 220", got, ok)
	}
	// No traffic between two scrapes: present, mean 0 — not a division by zero.
	if got, ok := histMeanMS(before.Delta(before), "streammap_request_duration_seconds", route); !ok || got != 0 {
		t.Errorf("idle delta = %v (present %v), want 0, present", got, ok)
	}
	// A family the daemon does not export is absent, not an error.
	if _, ok := histMeanMS(after.Delta(before), "streammap_no_such_seconds"); ok {
		t.Error("absent family reported present")
	}

	res := newResult("serve-hot", 1, 10, true)
	scrapeMetrics(res, after.Delta(before))
	if m := res.Metrics["server.handler_mean_ms"]; math.Abs(m.Value-220) > 1e-6 {
		t.Errorf("server.handler_mean_ms = %v, want 220", m.Value)
	}
	if _, ok := res.Metrics["core.recompiles"]; ok {
		t.Error("core.recompiles set from an exposition without that family")
	}
	if m := res.selected()["core.recompiles"]; m.Note != "absent" || m.Unit != "count" {
		t.Errorf("absent family reported as %+v", m)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartUS: 0, EndUS: 10000},
		{ID: 2, Parent: 1, Name: "a", StartUS: 1000, EndUS: 5000},
		{ID: 3, Parent: 1, Name: "b", StartUS: 4000, EndUS: 7000},  // overlaps a by 1 ms
		{ID: 4, Parent: 1, Name: "c", StartUS: 9000, EndUS: 12000}, // sticks out of the parent by 2 ms
		{ID: 5, Parent: 2, Name: "leaf", StartUS: 2000, EndUS: 3000},
		{ID: 6, Name: "request", StartUS: 20000, EndUS: 21000}, // a second, childless request
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"request": (10 - 6 - 1) + 1, // children cover [1,7] and [9,10]
		"a":       4 - 1,
		"b":       3,
		"c":       3,
		"leaf":    1,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, got[name], w)
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("replay", 0, -1)
	d := rec.timed("step", root, -1, func() { time.Sleep(time.Millisecond) })
	rec.end(root)
	if len(rec.spans) != 2 || rec.spans[1].Parent != root || rec.spans[1].Req != -1 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if d < time.Millisecond || rec.spans[0].EndUS < rec.spans[1].EndUS {
		t.Errorf("step took %v; root %+v ends before its child %+v", d, rec.spans[0], rec.spans[1])
	}
	var none *recorder // untraced runs record nothing and must not crash
	none.end(none.begin("x", 0, 0))
	none.add("y", 0, 0, time.Now(), time.Now())
	if err := none.write("/nonexistent/never-written.json", "w", 1); err != nil {
		t.Error(err)
	}
}

func TestCompareBounds(t *testing.T) {
	file := func(reqPerS, p50 float64) *resultFile {
		r := newResult("serve-hot", 1, 10, false)
		for _, s := range endToEnd {
			r.set(s.Name, 100)
		}
		r.set("req_per_s", reqPerS)
		r.set("latency_p50_ms", p50)
		return &resultFile{Workloads: []*result{r}}
	}
	base := file(500, 4)
	up, _ := specOf("req_per_s")
	down, _ := specOf("latency_p50_ms")
	const eps = 0.01
	for _, tc := range []struct {
		name string
		b    *resultFile
		bad  int
	}{
		{"identical", file(500, 4), 0},
		{"throughput lower, inside its bound", file(500*(1-up.Bound+eps), 4), 0},
		{"throughput lower, beyond its bound", file(500*(1-up.Bound-eps), 4), 1},
		{"throughput much higher is not a regression", file(900, 4), 0},
		{"latency higher, inside its bound", file(500, 4*(1+down.Bound-eps)), 0},
		{"latency higher, beyond its bound", file(500, 4*(1+down.Bound+eps)), 1},
		{"latency much lower is not a regression", file(500, 1), 0},
		{"both worse", file(100, 40), 2},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, base, tc.b); got != tc.bad {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, tc.bad, out.String())
		}
	}

	var out bytes.Buffer
	if got := compareResults(&out, base, &resultFile{}); got != 1 {
		t.Errorf("workload missing from b: %d regressions, want 1", got)
	}
	incorrect := file(500, 4)
	incorrect.Workloads[0].problem("served artifact differs")
	if got := compareResults(&out, base, incorrect); got != 1 {
		t.Errorf("b failed its checks: %d regressions, want 1", got)
	}
	noMetric := file(500, 4)
	delete(noMetric.Workloads[0].Metrics, "peak_rss_mb")
	if got := compareResults(&out, base, noMetric); got != 1 {
		t.Errorf("metric missing from b: %d regressions, want 1", got)
	}
}

func TestCheckRequiresEveryEndToEndMetricPositive(t *testing.T) {
	r := newResult("compile-large", 1, 10, false)
	for _, s := range endToEnd {
		r.set(s.Name, 1)
	}
	if r.check(); !r.Correct {
		t.Fatalf("complete result judged incorrect: %v", r.Problems)
	}
	r.set("cpu_ms_per_req", 0)
	if r.check(); r.Correct {
		t.Error("a zero end-to-end metric passed")
	}
}

// BENCHMARK.json at the root is generated by `-declare`; this fails when
// it was not regenerated after the tables changed, and when a table breaks
// one of the contract's limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	want, err := declaration()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -declare > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(want))
	}
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", len(ws))
	}
	for _, w := range ws {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[s.Name] || len(s.Name) > 64 || len(s.Unit) > 16 || (s.Better != "lower" && s.Better != "higher") || s.Bound > 0.25 {
			t.Errorf("metric %+v breaks the contract's limits or repeats a name", s)
		}
		seen[s.Name] = true
		hasSetup = hasSetup || s == metricSpec{"setup_s", "s", "lower", s.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
