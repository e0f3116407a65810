package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark only, around its own calls into each layer, kept in memory and
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // spans of one request or one replayed key share it
	Name   string `json:"name"`
	// Microseconds since the recorder was made.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder collects spans. A nil recorder records nothing, so untraced runs
// call it unconditionally. It is used from one goroutine at a time:
// requests are turned into spans after the window, from their records.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span after the fact and returns its id.
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := r.begin(name, parent, req)
	r.spans[id-1].StartUS = float64(start.Sub(r.t0)) / 1e3
	r.spans[id-1].EndUS = float64(end.Sub(r.t0)) / 1e3
	return id
}

// begin opens a span now; end closes it. Children name it as their parent.
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartUS: float64(time.Since(r.t0)) / 1e3})
	return id
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id-1].EndUS = float64(time.Since(r.t0)) / 1e3
	}
}

// timed runs f as a child span of parent and returns how long it took.
func (r *recorder) timed(name string, parent, req int, f func()) time.Duration {
	id := r.begin(name, parent, req)
	start := time.Now()
	f()
	d := time.Since(start)
	r.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its children cover. Children may overlap each other and may stick
// out of the parent; only the union of their intervals inside the parent
// is subtracted.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, upTo := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, upTo), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.Name] += (s.EndUS - s.StartUS - covered) / 1e3
	}
	return out
}

// traceFile is the shape of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SelfTimeMS is, per span name, total duration minus what child spans
	// cover, in milliseconds.
	SelfTimeMS map[string]float64 `json:"self_time_ms"`
	Spans      []span             `json:"spans"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	if r == nil {
		return nil
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfTimeMS: selfTimes(r.spans), Spans: r.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
