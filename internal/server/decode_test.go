package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"streammap/internal/driver"
	"streammap/internal/mapping"
	"streammap/internal/sdf"
	"streammap/internal/synth"
	"streammap/internal/topology"
)

// The decoder referee. encoding/json defines the wire contract; the request
// scanner is allowed to answer only where it answers identically.

// refGraph exercises every field of the wire form: a peeking filter with
// delay tokens, filter state with a fraction and a negative value, a
// zero-copy flag, pipeline grouping.
func refGraph(t testing.TB) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("ref")
	n0 := b.AddNode(&sdf.Filter{Name: "src", Outputs: []int{3}, Ops: 7, Kind: sdf.KindSource}, 0)
	n1 := b.AddNode(&sdf.Filter{Name: "win", Inputs: []sdf.InRate{{Pop: 1, Peek: 4}}, Outputs: []int{2}, Ops: 11,
		Init: []sdf.Token{1, -2.5, 1e-9}}, 0)
	n2 := b.AddNode(&sdf.Filter{Name: "zc", Inputs: []sdf.InRate{{Pop: 2, Peek: 2}}, Outputs: []int{2}, Ops: 1, ZeroCopy: true}, -1)
	n3 := b.AddNode(&sdf.Filter{Name: "sink", Inputs: []sdf.InRate{{Pop: 6, Peek: 6}}, Ops: 5, Kind: sdf.KindSink}, 1)
	b.ConnectDelayed(n0, 0, n1, 0, []sdf.Token{9, 8, 7})
	b.Connect(n1, 0, n2, 0)
	b.Connect(n2, 0, n3, 0)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func refOpts() driver.Options {
	return driver.Options{Topo: topology.PairedTree(2), MapOptions: mapping.Options{ILPMaxParts: 4, TimeBudget: 50 * time.Millisecond}}
}

func marshalRequest(t testing.TB, g *sdf.Graph) []byte {
	t.Helper()
	body, err := json.Marshal(NewRequest(g, refOpts()))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func synthGraph(t testing.TB, seed uint64, filters int) *sdf.Graph {
	t.Helper()
	g, err := synth.BuildGraph(synth.GraphParams{Seed: seed, Filters: filters})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withUnknownMember returns body with a member no decoder knows put first
// in its top-level object: the scanner declines it, json.Unmarshal decodes
// it to what it decoded body to.
func withUnknownMember(body []byte) []byte {
	open := bytes.IndexByte(body, '{')
	rest := body[open+1:]
	sep := ","
	if trimmed := bytes.TrimLeft(rest, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '}' {
		sep = ""
	}
	return []byte(string(body[:open+1]) + `"_":0` + sep + string(rest))
}

// substituter returns a function that cuts variants from body: each call
// replaces the first old with new, and fails the test when there is none.
func substituter(t testing.TB, body string) func(old, new string) []byte {
	return func(old, new string) []byte {
		t.Helper()
		if !strings.Contains(body, old) {
			t.Fatalf("the body has no %s to replace", old)
		}
		return []byte(strings.Replace(body, old, new, 1))
	}
}

// decoderSeeds are the bodies the referee starts from, with whether the
// scanner is expected to answer each itself.
func decoderSeeds(t testing.TB) []struct {
	name string
	body []byte
	scan bool
} {
	canon := string(marshalRequest(t, refGraph(t)))
	sub := substituter(t, canon)
	var generic struct {
		Options json.RawMessage `json:"options"`
		Graph   struct {
			Edges json.RawMessage `json:"edges"`
			Nodes json.RawMessage `json:"nodes"`
			Name  json.RawMessage `json:"name"`
		} `json:"graph"`
	}
	if err := json.Unmarshal([]byte(canon), &generic); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, []byte(canon), "\t ", "\r\n  "); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(NewRequest(refGraph(t), refOpts()), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	graph, options := canon[len(`{"graph":`):strings.Index(canon, `,"options":`)], string(generic.Options)
	// A map's keys are written sorted: "inputs" before "kind" before "name".
	var sorted struct {
		Name  string `json:"name"`
		Nodes []struct {
			Filter map[string]json.RawMessage `json:"filter"`
			Pipe   int                        `json:"pipe"`
		} `json:"nodes"`
		Edges json.RawMessage `json:"edges"`
	}
	if err := json.Unmarshal([]byte(graph), &sorted); err != nil {
		t.Fatal(err)
	}
	sortedFilters, err := json.Marshal(sorted)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []struct {
		name string
		body []byte
		scan bool
	}{
		{"canonical", []byte(canon), true},
		{"keys reordered", reordered, false},
		{"extra whitespace", append([]byte(" \n"), append(spaced.Bytes(), '\t', '\n')...), false},
		{"indented (MarshalIndent)", indented, false},
		{"options first", []byte(`{"options":` + options + `,"graph":` + graph + `}`), false},
		{"filter keys sorted", []byte(`{"graph":` + string(sortedFilters) + `,"options":` + options + `}`), false},
		{"trailing newline", []byte(canon + "\n"), true},
		{"minus zero int", sub(`"pipe":0`, `"pipe":-0`), true},
		{"minus zero token", sub(`"initial":[9,`, `"initial":[-0,`), true},
		{"exponent token", sub(`"initial":[9,`, `"initial":[9E+0,`), true},
		{"empty lists spelled out", sub(`"kind":4,`, `"kind":4,"inputs":[],"init":[],`), false},
		{"no options", []byte(`{"graph":{"name":"g","nodes":[],"edges":[]}}`), true},
		{"empty object", []byte(`{}`), false},
		{"unknown field", withUnknownMember([]byte(canon)), false},
		{"unknown filter field", sub(`"kind":4`, `"kind":4,"colour":"red"`), false},
		{"edge rates of format 4", sub(`"dstPort":0,"initial"`, `"dstPort":0,"push":3,"pop":1,"peek":4,"initial"`), false},
		{"duplicated nodes", sub(`"edges":`, `"nodes":[],"edges":`), false},
		{"duplicated pipe", sub(`"pipe":0`, `"pipe":5,"pipe":0`), false},
		{"case-variant key", sub(`"name":"src"`, `"Name":"src"`), false},
		{"string escape", sub(`"name":"src"`, `"name":"\u0041src"`), false},
		{"raw UTF-8", sub(`"name":"src"`, `"name":"srç"`), false},
		{"exponent int", sub(`"ops":7`, `"ops":1e3`), false},
		{"leading zero", sub(`"ops":7`, `"ops":01`), false},
		{"plus sign", sub(`"ops":7`, `"ops":+1`), false},
		{"bare fraction", sub(`"ops":7`, `"ops":.5`), false},
		{"fraction in int", sub(`"ops":7`, `"ops":7.0`), false},
		{"19-digit int", sub(`"ops":7`, `"ops":1234567890123456789`), false},
		{"18-digit int", sub(`"ops":7`, `"ops":-123456789012345678`), true},
		{"null nodes", sub(`"edges":`, `"edges":null,"x":`), false},
		{"null list", sub(`"outputs":[3]`, `"outputs":null`), true},
		{"null options", []byte(`{"graph":{"name":"g","nodes":[],"edges":[]},"options":null}`), false},
		{"bool as number", sub(`"zeroCopy":true`, `"zeroCopy":1`), false},
		{"options not closed", []byte(canon[:len(canon)-2]), false},
		{"options malformed inside", sub(`"fragmentIters":`, `"fragmentIters"::`), false},
		{"trailing garbage", []byte(canon + "x"), false},
		{"trailing comma", sub(`"outputs":[3]`, `"outputs":[3,]`), false},
		{"second value", []byte(canon + canon), false},
		{"empty", nil, false},
		{"array", []byte(`[]`), false},
	}
	for k := 97; k < len(canon); k += 97 {
		seeds = append(seeds, struct {
			name string
			body []byte
			scan bool
		}{"truncated", []byte(canon[:k]), false})
	}
	return seeds
}

// noEmpty returns v with every empty slice inside it replaced by nil, so
// that two decodes can be compared without telling "absent" from "[]" —
// which nothing downstream can tell apart either (both have length zero).
func noEmpty(req CompileRequest) CompileRequest {
	g := &req.Graph
	g.Nodes = append([]sdf.NodeSpec(nil), g.Nodes...)
	g.Edges = append([]sdf.EdgeSpec(nil), g.Edges...)
	for i := range g.Nodes {
		f := &g.Nodes[i].Filter
		f.Inputs = append([]sdf.PortSpec(nil), f.Inputs...)
		f.Outputs = append([]int(nil), f.Outputs...)
		f.Init = append([]sdf.Token(nil), f.Init...)
	}
	for i := range g.Edges {
		g.Edges[i].Initial = append([]sdf.Token(nil), g.Edges[i].Initial...)
	}
	return req
}

// sameRequest reports whether two decodes are one request: equal field by
// field (empty ≡ nil), and — because == calls -0 and 0 equal and the
// identity does not — equal in the digest, which hashes every token's bits.
func sameRequest(a, b CompileRequest) bool {
	return reflect.DeepEqual(noEmpty(a), noEmpty(b)) && sdf.SpecDigest(&a.Graph) == sdf.SpecDigest(&b.Graph)
}

// checkDecoders holds the scanner to its contract on one body: where it
// answers, json.Unmarshal accepts the body too and decodes the same
// request. It reports whether the scanner answered.
func checkDecoders(t *testing.T, c *compileCall, body []byte) bool {
	t.Helper()
	c.body = append(c.body[:0], body...)
	scanned := c.scan()
	if !scanned {
		return false
	}
	var want CompileRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("the scanner accepted a body json.Unmarshal rejects (%v):\n%s", err, body)
	}
	if !sameRequest(c.req, want) {
		t.Fatalf("the scanner and json.Unmarshal disagree on:\n%s\nscanner: %+v\n   json: %+v", body, c.req, want)
	}
	return true
}

// TestScannerVerdicts pins which side of the grammar each seed falls on,
// and the decoder contract on all of them, through one reused call.
func TestScannerVerdicts(t *testing.T) {
	var c compileCall
	for _, seed := range decoderSeeds(t) {
		if got := checkDecoders(t, &c, seed.body); got != seed.scan {
			t.Errorf("%s: scanner answered = %v, want %v\n%s", seed.name, got, seed.scan, seed.body)
		}
	}
}

// TestDecodeReusesWithoutResidue decodes a 400-filter body, then a
// 16-filter one, then one only json.Unmarshal takes, into one call — the
// pool's steady state — and compares each with a fresh decode: no node,
// port, token or name of an earlier request may show through.
func TestDecodeReusesWithoutResidue(t *testing.T) {
	big, small, other := synthGraph(t, 5, 400), synthGraph(t, 6, 16), synthGraph(t, 7, 40)
	if big.NumNodes() < 400 || small.NumNodes() > 40 {
		t.Fatalf("graphs of %d and %d nodes do not exercise shrinking", big.NumNodes(), small.NumNodes())
	}
	var c compileCall
	for _, step := range []struct {
		body []byte
		how  string
	}{
		{marshalRequest(t, big), byScan},
		{marshalRequest(t, small), byScan},
		{withUnknownMember(marshalRequest(t, other)), byFallback},
		{marshalRequest(t, refGraph(t)), byScan},
	} {
		how, err := c.decode(bytes.NewReader(step.body), int64(len(step.body)))
		if err != nil || how != step.how {
			t.Fatalf("decode = %q, %v; want %q", how, err, step.how)
		}
		var want CompileRequest
		if err := json.Unmarshal(step.body, &want); err != nil {
			t.Fatal(err)
		}
		if !sameRequest(c.req, want) {
			t.Fatalf("a reused call decoded %d nodes / %d edges where a fresh one decodes %d / %d (or their contents differ)",
				len(c.req.Graph.Nodes), len(c.req.Graph.Edges), len(want.Graph.Nodes), len(want.Graph.Edges))
		}
		if !bytes.Equal(c.body, step.body) {
			t.Fatal("the buffered body is not the body sent")
		}
	}
}

// TestDeclinedBodiesServeTheSameBytes posts the canonical body and three
// twins the scan declines — indented as json.MarshalIndent writes it,
// options before graph, and every filter's keys sorted — to one server. All
// four are one request, so all four are answered with one artifact's bytes;
// exactly the three twins go to json.Unmarshal, and their request.decode
// notes say so.
func TestDeclinedBodiesServeTheSameBytes(t *testing.T) {
	bodies := map[string][]byte{}
	for _, seed := range decoderSeeds(t) {
		bodies[seed.name] = seed.body
	}
	s := New(Config{})
	defer closeServer(t, s)
	var want []byte
	for _, name := range []string{"canonical", "indented (MarshalIndent)", "options first", "filter keys sorted"} {
		before := s.met.decodeFallback.Value()
		rec := post(s, bodies[name])
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: answered %d: %s", name, rec.Code, rec.Body)
		}
		if want == nil {
			want = rec.Body.Bytes()
		} else if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: answered other bytes than the canonical body", name)
		}
		moved, note := s.met.decodeFallback.Value()-before, decodeNote(t, s)
		if declined := name != "canonical"; declined && (moved != 1 || note != byFallback) || !declined && (moved != 0 || note == byFallback) {
			t.Errorf("%s: decode_fallback moved by %d and request.decode noted %q", name, moved, note)
		}
	}
}

// decodeNote returns the request.decode note of s's newest trace.
func decodeNote(t *testing.T, s *Server) string {
	t.Helper()
	for _, sp := range s.tracer.Snapshot().Recent[0].Spans {
		if sp.Name == "request.decode" {
			return sp.Note
		}
	}
	t.Fatal("the newest trace has no request.decode span")
	return ""
}

// verdictServer is the one server the fuzz target posts to.
var verdictServer = sync.OnceValue(func() *Server { return New(Config{}) })

// verdict posts body to the handler and returns its status and whether the
// fallback decoder took it.
func verdict(t *testing.T, body []byte) (status int, fellBack bool) {
	t.Helper()
	s := verdictServer()
	before := s.met.decodeFallback.Value()
	return post(s, body).Code, s.met.decodeFallback.Value() > before
}

// small reports whether compiling req is cheap enough for a fuzz iteration:
// the handler's verdict is a function of the decoded request, which the
// decoder check already holds equal, so it is only spot-checked where a
// hostile rate cannot turn it into minutes of pipeline.
func small(req CompileRequest) bool {
	g := req.Graph
	if len(g.Nodes) > 8 || len(g.Edges) > 16 {
		return false
	}
	ok := func(v int) bool { return v >= 0 && v <= 16 }
	for _, n := range g.Nodes {
		f := n.Filter
		if f.Ops < 0 || f.Ops > 1<<16 || len(f.Inputs) > 4 || len(f.Outputs) > 4 || len(f.Init) > 16 {
			return false
		}
		for _, in := range f.Inputs {
			if !ok(in.Pop) || !ok(in.Peek) {
				return false
			}
		}
		for _, push := range f.Outputs {
			if !ok(push) {
				return false
			}
		}
	}
	for _, e := range g.Edges {
		if len(e.Initial) > 16 {
			return false
		}
	}
	return req.Options.ILPBudgetNS <= int64(100*time.Millisecond) && len(req.Options.Topo.GPUNodes) <= 4
}

// FuzzDecodeRequest: for any body, scanner-accepts implies json.Unmarshal
// accepts and the two decoded requests are equal; and the handler answers
// such a body with the same status whichever decoder it goes through.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var c compileCall
		if !checkDecoders(t, &c, body) || !small(c.req) {
			return
		}
		direct, fellBack := verdict(t, body)
		if fellBack {
			t.Fatalf("the handler fell back on a body the scanner accepts:\n%s", body)
		}
		viaJSON, fellBack := verdict(t, withUnknownMember(body))
		if !fellBack {
			t.Fatalf("an unknown member did not send the body to the fallback decoder:\n%s", body)
		}
		if direct != viaJSON {
			t.Fatalf("the handler answers %d through the scanner and %d through json.Unmarshal:\n%s", direct, viaJSON, body)
		}
		if direct != http.StatusOK && direct != http.StatusBadRequest {
			t.Logf("status %d for:\n%s", direct, body)
		}
	})
}
