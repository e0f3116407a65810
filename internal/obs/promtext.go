package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4): what GET /metrics serves,
// and the parsing half every reader goes through — the loadtest harness
// and the benchmark turn two scrapes into deltas, and in-process readers
// (server.Server.Metrics) parse the same rendering. The renderer is
// deterministic — families sorted by name, series by label string, label
// keys sorted within a series — so a golden-file test can pin the output
// shape byte for byte and two scrapes of one server always use identical
// sample keys.

// WriteText renders every registered metric in Prometheus text format.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fam))
	for name := range r.fam {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fam[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.mu.Lock()
		ser := append([]*series(nil), f.ser...)
		f.mu.Unlock()
		if len(ser) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ser {
			switch {
			case s.counter != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.fn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatValue(s.fn()))
			case s.hist != nil:
				writeHistogram(bw, f.name, s.labels, s.hist)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets with an
// le label, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(float64(h.sumMicros.Load())/1e6))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// withLE splices the le label into a rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

// formatValue renders a float the shortest way that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Samples is one parsed scrape: full sample name (labels included,
// exactly as rendered) to value. Two scrapes of the same server use
// identical keys, so Delta is a map walk.
type Samples map[string]float64

// ParseText parses a Prometheus text exposition into samples. Comment
// and blank lines are skipped; a malformed sample line is an error —
// /metrics must parse, that is the acceptance bar.
func ParseText(data []byte) (Samples, error) {
	out := Samples{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("obs: metrics line %d: no value separator: %q", ln, line)
		}
		name, val := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: value %q: %w", ln, val, err)
		}
		if name == "" || (!isNameStart(name[0])) {
			return nil, fmt.Errorf("obs: metrics line %d: malformed sample name %q", ln, name)
		}
		out[canonicalName(name)] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// canonicalName re-renders a sample name's label block with keys sorted,
// so Get/Quantile lookups (which render labels canonically) match samples
// whose exposition order differs — histogram buckets render le last, but
// canonically le sorts among the other keys.
func canonicalName(name string) string {
	brace := strings.IndexByte(name, '{')
	if brace < 0 {
		return name
	}
	m := parseLabels(name[brace:])
	ls := make([]Label, 0, len(m))
	for k, v := range m {
		ls = append(ls, Label{k, v})
	}
	return name[:brace] + renderLabels(ls)
}

// Delta returns s - before, sample by sample: the traffic between two
// scrapes. Samples absent from before are taken as starting at zero;
// samples absent from s are dropped.
func (s Samples) Delta(before Samples) Samples {
	out := make(Samples, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// Get returns the sample for name with exactly the given labels (order
// irrelevant; they are re-rendered canonically).
func (s Samples) Get(name string, labels ...Label) (float64, bool) {
	v, ok := s[name+renderLabels(labels)]
	return v, ok
}

// bucketPoint is one cumulative bucket of a histogram sample set.
type bucketPoint struct {
	le  float64
	cum float64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram's
// observations from its cumulative _bucket samples — the standard
// histogram_quantile linear interpolation. labels select the series
// (every label except le must match exactly). ok is false when the
// series is absent or empty.
func (s Samples) Quantile(name string, q float64, labels ...Label) (float64, bool) {
	want := map[string]string{}
	for _, l := range labels {
		want[l.Key] = l.Value
	}
	var pts []bucketPoint
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		ls := parseLabels(k[len(prefix)-1:])
		if len(ls) != len(want)+1 {
			continue
		}
		match := true
		for lk, lv := range want {
			if ls[lk] != lv {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		le, err := parseLE(ls["le"])
		if err != nil {
			continue
		}
		pts = append(pts, bucketPoint{le: le, cum: v})
	}
	if len(pts) == 0 {
		return 0, false
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].le < pts[j].le })
	total := pts[len(pts)-1].cum
	if total <= 0 {
		return 0, false
	}
	rank := q * total
	for i, p := range pts {
		if p.cum >= rank {
			lo, cumLo := 0.0, 0.0
			if i > 0 {
				lo, cumLo = pts[i-1].le, pts[i-1].cum
			}
			hi := p.le
			if math.IsInf(hi, 1) { // +Inf bucket: report the highest finite bound
				return lo, true
			}
			if p.cum == cumLo {
				return hi, true
			}
			return lo + (hi-lo)*(rank-cumLo)/(p.cum-cumLo), true
		}
	}
	return pts[len(pts)-1].le, true
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses a rendered {k="v",...} label block. It handles the
// escapes renderLabels emits; values containing a literal `",` sequence
// are out of contract (registry label values are route/tier/stage names).
func parseLabels(block string) map[string]string {
	block = strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	out := map[string]string{}
	for _, part := range strings.Split(block, `",`) {
		k, v, ok := strings.Cut(part, `="`)
		if !ok {
			continue
		}
		v = strings.TrimSuffix(v, `"`)
		v = strings.ReplaceAll(v, `\n`, "\n")
		v = strings.ReplaceAll(v, `\"`, `"`)
		v = strings.ReplaceAll(v, `\\`, `\`)
		out[k] = v
	}
	return out
}
