package sdf_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"streammap/internal/apps"
	"streammap/internal/sdf"
	"streammap/internal/synth"
)

// The graph decoder's referee: encoding/json defines the wire form, and
// GraphSpec.UnmarshalJSON may answer without it only where it answers
// identically.

func marshalSpec(t testing.TB, g *sdf.Graph) []byte {
	t.Helper()
	body, err := json.Marshal(sdf.ExportGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// appBodies is encoding/json's output for every registered app at its
// smallest size and, unless small is set, its largest.
func appBodies(t testing.TB, small bool) map[string][]byte {
	t.Helper()
	bodies := map[string][]byte{}
	for _, a := range apps.Registry {
		sizes := []int{a.Sizes[0], a.Sizes[len(a.Sizes)-1]}
		if small {
			sizes = sizes[:1]
		}
		for _, n := range sizes {
			g, err := apps.BuildGraph(a, n)
			if err != nil {
				t.Fatal(err)
			}
			bodies[g.Name] = marshalSpec(t, g)
		}
	}
	return bodies
}

// allFields is a small graph that spells out every member of the wire form:
// a zero-copy filter, filter state, delay tokens, peeking and pipelines.
func allFields(t testing.TB) []byte {
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
	return marshalSpec(t, g)
}

// sortedKeys re-encodes body with every object's keys in sorted order — the
// reverse of encoding/json's order for most of the wire form's objects.
func sortedKeys(t testing.TB, body []byte) []byte {
	t.Helper()
	d := json.NewDecoder(bytes.NewReader(body))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// variants are bodies cut from allFields, each just inside or just outside
// the scanner's grammar.
func variants(t testing.TB) map[string][]byte {
	t.Helper()
	canon := allFields(t)
	sub := func(old, new string) []byte {
		t.Helper()
		if !bytes.Contains(canon, []byte(old)) {
			t.Fatalf("the body has no %s to replace", old)
		}
		return bytes.Replace(canon, []byte(old), []byte(new), 1)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, canon, "\t ", "\r\n  "); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"canonical":        canon,
		"keys reordered":   sortedKeys(t, canon),
		"whitespace":       append([]byte(" \n"), append(spaced.Bytes(), '\t', '\n')...),
		"spaced colon":     sub(`"ops":7`, `"ops" : 7`),
		"negative int":     sub(`"pipe":0`, `"pipe":-12`),
		"minus zero":       sub(`"initial":[9,`, `"initial":[-0,`),
		"leading zero":     sub(`"ops":7`, `"ops":07`),
		"19 digits":        sub(`"ops":7`, `"ops":-1234567890123456789`),
		"escaped name":     sub(`"name":"src"`, `"name":"\u0073rc"`),
		"case-variant key": sub(`"kind":4`, `"Kind":4`),
		"duplicate key":    sub(`"pipe":0`, `"pipe":1,"pipe":0`),
		"unknown key":      sub(`"ops":7`, `"ops":7,"colour":"red"`),
		"null list":        sub(`"outputs":[3]`, `"outputs":null`),
		"null name":        sub(`"name":"src"`, `"name":null`),
		"exponent token":   sub(`"initial":[9,`, `"initial":[9E+0,`),
		"trailing comma":   sub(`"outputs":[3]`, `"outputs":[3,]`),
	}
}

// noEmpty returns spec with every empty slice replaced by nil, so that two
// decodes compare without telling "absent" from "[]" — which nothing
// downstream tells apart either.
func noEmpty(spec sdf.GraphSpec) sdf.GraphSpec {
	spec.Nodes = append([]sdf.NodeSpec(nil), spec.Nodes...)
	spec.Edges = append([]sdf.EdgeSpec(nil), spec.Edges...)
	for i := range spec.Nodes {
		f := &spec.Nodes[i].Filter
		f.Inputs = append([]sdf.PortSpec(nil), f.Inputs...)
		f.Outputs = append([]int(nil), f.Outputs...)
		f.Init = append([]sdf.Token(nil), f.Init...)
	}
	for i := range spec.Edges {
		spec.Edges[i].Initial = append([]sdf.Token(nil), spec.Edges[i].Initial...)
	}
	return spec
}

// sameSpec reports whether two decodes are one spec: equal field by field
// (empty ≡ nil) and — because == calls -0 and 0 equal and the identity does
// not — equal in the digest, which hashes every token's bits.
func sameSpec(a, b sdf.GraphSpec) bool {
	return reflect.DeepEqual(noEmpty(a), noEmpty(b)) && sdf.SpecDigest(&a) == sdf.SpecDigest(&b)
}

// checkDecode holds UnmarshalJSON to the reference decode on data, decoding
// into into — a fresh spec or one a previous decode left behind.
func checkDecode(t *testing.T, into *sdf.GraphSpec, data []byte) {
	t.Helper()
	var want sdf.GraphSpec
	errWant := sdf.DecodeReference(data, &want)
	errGot := into.UnmarshalJSON(data)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("UnmarshalJSON says %v, json.Unmarshal says %v, on:\n%s", errGot, errWant, data)
	}
	if errGot == nil && !sameSpec(*into, want) {
		t.Fatalf("UnmarshalJSON and json.Unmarshal disagree on:\n%s\n decoder: %+v\n    json: %+v", data, *into, want)
	}
}

// TestGraphSpecVariants pins which side of the scanner's grammar each
// variant falls on, and the decoder contract on all of them.
func TestGraphSpecVariants(t *testing.T) {
	declined := map[string]bool{
		"keys reordered": true, "whitespace": true, "spaced colon": true, "leading zero": true, "19 digits": true, "escaped name": true, "case-variant key": true,
		"duplicate key": true, "unknown key": true, "null name": true, "trailing comma": true,
	}
	var reused sdf.GraphSpec
	for name, body := range variants(t) {
		var spec sdf.GraphSpec
		if end, ok := spec.ScanJSON(body, 0); ok == declined[name] || ok && len(bytes.TrimSpace(body[end:])) > 0 {
			t.Errorf("%s: scanned = %v (ending at %d of %d), want %v", name, ok, end, len(body), !declined[name])
		}
		checkDecode(t, new(sdf.GraphSpec), body)
		checkDecode(t, &reused, body)
	}
}

// canonicalBodies is json.Marshal's output for every app and for the synth
// corpus, and the graph of the checked-in golden artifact as it was written.
func canonicalBodies(t *testing.T) map[string][]byte {
	bodies := appBodies(t, false)
	golden, err := os.ReadFile("../artifact/testdata/des4x2.artifact.json")
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(golden, &artifact); err != nil {
		t.Fatal(err)
	}
	bodies["des4x2.artifact.json"] = artifact.Graph
	scenarios, err := synth.Corpus(synth.CorpusParams{Seed: 0x5EED, Scenarios: 200, MaxFilters: 28})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		g, err := sc.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		bodies[sc.Name] = marshalSpec(t, g)
	}
	return bodies
}

// TestCanonicalBodiesStayInOrder pins the fast path: the scanner answers
// every body json.Marshal writes, whole, with json.Unmarshal's spec, and
// declines the same graph with its keys sorted. A change to the wire types
// that the scanner misses fails here, not only in the benchmark.
func TestCanonicalBodiesStayInOrder(t *testing.T) {
	var reused sdf.GraphSpec
	if _, ok := reused.ScanJSON(sortedKeys(t, allFields(t)), 0); ok {
		t.Fatal("the scanner answered a body with sorted keys")
	}
	for name, body := range canonicalBodies(t) {
		if end, ok := reused.ScanJSON(body, 0); !ok || end != len(body) {
			t.Fatalf("%s: scanned = %v, ending at %d of %d", name, ok, end, len(body))
		}
		var want sdf.GraphSpec
		if err := sdf.DecodeReference(body, &want); err != nil || !sameSpec(reused, want) {
			t.Fatalf("%s: the scanner's spec is not json.Unmarshal's (%v)", name, err)
		}
	}
}

// TestScanJSONInsideABuffer decodes a graph in the middle of a larger
// document and checks where it says the graph ended.
func TestScanJSONInsideABuffer(t *testing.T) {
	graph := allFields(t)
	doc := fmt.Sprintf(`{"graph": %s , "rest":1}`, graph)
	at := strings.Index(doc, ":") + 1
	var spec sdf.GraphSpec
	end, ok := spec.ScanJSON([]byte(doc), at)
	if want := at + 1 + len(graph); !ok || end != want {
		t.Fatalf("ScanJSON = %d, %v; want %d, true", end, ok, want)
	}
	var want sdf.GraphSpec
	if err := json.Unmarshal(graph, &want); err != nil || !sameSpec(spec, want) {
		t.Fatalf("the graph decoded inside a buffer differs (%v)", err)
	}
}

// FuzzGraphSpecJSON: for any bytes, UnmarshalJSON and json.Unmarshal of
// the decoder-less type both fail or decode equal specs — into a fresh
// spec and into one a previous decode left behind.
func FuzzGraphSpecJSON(f *testing.F) {
	for _, body := range appBodies(f, true) {
		f.Add(body)
	}
	g, err := synth.BuildGraph(synth.GraphParams{Seed: 0xBEEF, Filters: 30, PeekProb: 0.3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(marshalSpec(f, g))
	for _, body := range variants(f) {
		f.Add(body)
	}
	prior := allFields(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, new(sdf.GraphSpec), data)
		var reused sdf.GraphSpec
		if err := reused.UnmarshalJSON(prior); err != nil {
			t.Fatal(err)
		}
		checkDecode(t, &reused, data)
	})
}

// BenchmarkGraphSpecUnmarshal decodes the serving benchmark's 400-filter
// request graph and compile-large's 10⁴-filter graph into a reused spec.
func BenchmarkGraphSpecUnmarshal(b *testing.B) {
	for _, p := range []synth.GraphParams{
		{Seed: 5, Filters: 400},
		{Seed: 10000<<16 | 4, Filters: 10000, MaxRate: 8, MaxOps: 512, SkewWork: true},
	} {
		b.Run(fmt.Sprintf("filters=%d", p.Filters), func(b *testing.B) {
			g, err := synth.BuildGraph(p)
			if err != nil {
				b.Fatal(err)
			}
			body := marshalSpec(b, g)
			var spec sdf.GraphSpec
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := spec.UnmarshalJSON(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
