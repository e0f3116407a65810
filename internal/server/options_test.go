package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"streammap/internal/core"
	"streammap/internal/driver"
)

// The options table's referees: a body whose options the table answers is
// served exactly as one whose options were imported afresh, the table never
// holds more than its slots, and a slot may change hands under readers.

// withOptions is the request for refGraph with options as its raw options
// text; "" leaves the member out.
func withOptions(t testing.TB, options string) []byte {
	t.Helper()
	graph, err := json.Marshal(NewRequest(refGraph(t), refOpts()).Graph)
	if err != nil {
		t.Fatal(err)
	}
	if options == "" {
		return []byte(fmt.Sprintf(`{"graph":%s}`, graph))
	}
	return []byte(fmt.Sprintf(`{"graph":%s,"options":%s}`, graph, options))
}

// optionsText is opts' wire form as NewRequest sends it.
func optionsText(t testing.TB, opts driver.Options) string {
	t.Helper()
	b, err := json.Marshal(driver.ExportOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// reference is what a body must be answered with: the status and body a
// fresh server gives it, and — when its options import — the hash
// driver.ImportOptions, core.OptionsKey and core.HashOfSpec make of it.
func reference(t *testing.T, body []byte) (status int, answer, hash string) {
	t.Helper()
	var req CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	defer closeServer(t, fresh)
	rec := post(fresh, body)
	opts, err := driver.ImportOptions(req.Options)
	if err != nil {
		if want := "importing options: " + err.Error() + "\n"; rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Fatalf("a fresh server answers %d %q, want 400 %q", rec.Code, rec.Body, want)
		}
		return rec.Code, rec.Body.String(), ""
	}
	key, err := core.OptionsKey(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, rec.Body.String(), core.HashOfSpec(&req.Graph, key)
}

// TestOptionsTableServesAsImported posts each body twenty times to one
// server: the first answer (options imported) and the twentieth (options
// from the table) must both be a fresh server's answer, byte for byte, and
// every valid body must key where ImportOptions + HashOfSpec key it. A body
// whose options do not import is refused every time and never stored. The
// same body through the whole-body fallback, posted after a table hit on
// other options, is answered the same again.
func TestOptionsTableServesAsImported(t *testing.T) {
	canon := optionsText(t, refOpts())
	var generic map[string]json.RawMessage // marshals its keys sorted
	if err := json.Unmarshal([]byte(canon), &generic); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, []byte(canon), "\t", " \r\n "); err != nil {
		t.Fatal(err)
	}
	sub := func(old, new string) string {
		t.Helper()
		if !strings.Contains(canon, old) {
			t.Fatalf("the options have no %s to replace", old)
		}
		return strings.Replace(canon, old, new, 1)
	}
	// The zero options and the absent member key as their explicit-default
	// twin (TestZeroOptionsSelectDefaults).
	cases := []struct{ name, options string }{
		{"explicit-default twin", optionsText(t, driver.Options{})},
		{"zero options", "{}"},
		{"options left out", ""},
		{"canonical", canon},
		{"keys reordered", string(reordered)},
		{"whitespace", spaced.String()},
		{"bad device", sub(`"NumSMs":16`, `"NumSMs":0`)},
		{"bad topology", sub(`"gpuNodes":[3,4]`, `"gpuNodes":[3,9]`)},
		{"unknown partitioner", sub(`"partitioner":"alg1"`, `"partitioner":"nope"`)},
		{"unknown mapper", sub(`"mapper":"ilp"`, `"mapper":"nope"`)},
		{"negative fragmentIters", sub(`"fragmentIters":512`, `"fragmentIters":-1`)},
		{"negative ilpMaxParts", sub(`"ilpMaxParts":4`, `"ilpMaxParts":-1`)},
		{"negative ilpBudgetNS", sub(`"ilpBudgetNS":50000000`, `"ilpBudgetNS":-1`)},
		{"invalid multilevelThreshold", sub(`"multilevelThreshold":4096`, `"multilevelThreshold":-2`)},
	}
	graph := NewRequest(refGraph(t), refOpts()).Graph
	s := New(Config{})
	defer closeServer(t, s)
	keys := map[string]bool{}
	for _, tc := range cases {
		body := withOptions(t, tc.options)
		status, answer, hash := reference(t, body)
		if hash != "" {
			keys[hash] = true
		}
		var first, last *httptest.ResponseRecorder
		for i := 0; i < 20; i++ {
			if last = post(s, body); i == 0 {
				first = last
			}
		}
		// Read the table before the next post: that body may hash to the
		// same slot and take it.
		var raw []byte
		if tc.options != "" {
			raw = []byte(tc.options)
		}
		switch e := s.options.get(raw); {
		case hash == "" && e != nil:
			t.Errorf("%s: options that do not import were stored", tc.name)
		case hash != "" && e == nil:
			t.Errorf("%s: valid options were not stored", tc.name)
		case hash != "" && core.HashOfSpec(&graph, e.key) != hash:
			t.Errorf("%s: the stored options key to another hash than HashOfSpec's %s", tc.name, hash)
		}
		// The whole-body fallback bypasses the table, and must not inherit
		// the entry a scan found for the body posted before it.
		post(s, withOptions(t, canon))
		fallback := post(s, withUnknownMember(body))
		for i, rec := range []*httptest.ResponseRecorder{first, last, fallback} {
			if rec.Code != status || rec.Body.String() != answer {
				t.Errorf("%s: %s answered %d (%d bytes), a fresh server %d (%d bytes)",
					tc.name, []string{"post 1", "post 20", "the fallback"}[i], rec.Code, rec.Body.Len(), status, len(answer))
			}
		}
		if hash != "" {
			if got, ok := s.svc.EncodedByHash(t.Context(), hash); !ok || string(got) != answer {
				t.Errorf("%s: the server holds no %s, or other bytes under it", tc.name, hash)
			}
		}
	}
	// Every repeat keyed to a compiled key: one compile per distinct key.
	if st := s.svc.Stats(); st.Misses != int64(len(keys)) {
		t.Errorf("%d compiles for %d distinct keys", st.Misses, len(keys))
	}
}

// TestZeroOptionsSelectDefaults: a zero wire field selects the default a
// zero driver.Options field does. Zero options, an absent options member
// and the explicit defaults with any one field left out are each answered
// as the explicit defaults are: 200, the same key, the same bytes, and one
// compile among them all.
func TestZeroOptionsSelectDefaults(t *testing.T) {
	twin := optionsText(t, driver.Options{})
	status, answer, hash := reference(t, withOptions(t, twin))
	if status != http.StatusOK {
		t.Fatalf("the explicit defaults answered %d: %s", status, answer)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(twin), &fields); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{"zero options": "{}", "options left out": ""}
	for name := range fields {
		rest := maps.Clone(fields)
		delete(rest, name)
		b, err := json.Marshal(rest)
		if err != nil {
			t.Fatal(err)
		}
		cases["without "+name] = string(b)
	}
	s := New(Config{})
	defer closeServer(t, s)
	for name, options := range cases {
		body := withOptions(t, options)
		if st, _, h := reference(t, body); st != http.StatusOK || h != hash {
			t.Errorf("%s: a fresh server answers %d, key %s; want 200, key %s", name, st, h, hash)
		}
		if rec := post(s, body); rec.Code != http.StatusOK || rec.Body.String() != answer {
			t.Errorf("%s: answered %d (%d bytes), the explicit defaults 200 (%d bytes)", name, rec.Code, rec.Body.Len(), len(answer))
		}
	}
	if st := s.svc.Stats(); st.Misses != 1 {
		t.Errorf("%d compiles for one key", st.Misses)
	}
}

// slotOf is the slot of the options table that raw maps to.
func slotOf(s *Server, raw string) uint64 {
	return maphash.Bytes(optionsSeed, []byte(raw)) % uint64(len(s.options.slots))
}

// TestOptionsTableBounded posts ten times as many distinct valid options as
// the table has slots. Each comes with a graph the service refuses once it
// builds it, so nothing compiles: the options are imported, keyed and
// stored before the graph is ever built.
func TestOptionsTableBounded(t *testing.T) {
	s := New(Config{})
	defer closeServer(t, s)
	opts, slots := refOpts(), len(s.options.slots)
	for i := 0; i < 10*slots; i++ {
		opts.FragmentIters = 1 + i
		body := fmt.Sprintf(`{"graph":{"name":"empty","nodes":[],"edges":[]},"options":%s}`, optionsText(t, opts))
		if rec := post(s, []byte(body)); rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), "importing graph: ") {
			t.Fatalf("answered %d %q, want 400 importing graph: ...", rec.Code, rec.Body)
		}
	}
	entries := 0
	for i := range s.options.slots {
		if s.options.slots[i].Load() != nil {
			entries++
		}
	}
	if entries > slots || entries < slots/2 {
		t.Errorf("the table holds %d entries after %d distinct options; it has %d slots", entries, 10*slots, slots)
	}
}

// TestOptionsTableSlotChangesHands: two options bodies that hash to one
// slot, posted by many goroutines at once, take the slot from each other
// over and over while others read it. Every answer must be its body's
// fresh-server answer.
func TestOptionsTableSlotChangesHands(t *testing.T) {
	s := New(Config{})
	defer closeServer(t, s)
	opts := refOpts()
	a := optionsText(t, opts)
	var b string
	for b == "" {
		opts.MapOptions.TimeBudget += 1
		if text := optionsText(t, opts); slotOf(s, text) == slotOf(s, a) {
			b = text
		}
	}
	bodies := [][]byte{withOptions(t, a), withOptions(t, b)}
	var answers [2]string
	for i, body := range bodies {
		status, answer, _ := reference(t, body)
		if status != http.StatusOK {
			t.Fatalf("body %d answered %d: %s", i, status, answer)
		}
		answers[i] = answer
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				which := (g + i) % 2
				if rec := post(s, bodies[which]); rec.Code != http.StatusOK || rec.Body.String() != answers[which] {
					t.Errorf("body %d answered %d with other bytes", which, rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.svc.Stats(); st.Misses != 2 {
		t.Errorf("%d compiles for two keys", st.Misses)
	}
}
