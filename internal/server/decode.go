package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/sdf"
)

// The front of POST /v1/compile. A daemon mostly hands known artifacts
// back, so what a request costs before its key exists is what a hit costs:
// the body is read into memory the previous request used, and a scanner
// written for this one schema fills a CompileRequest whose slices are the
// previous request's too. encoding/json stays the definition of the wire
// contract: anything outside the narrow grammar the scanner knows — which
// covers what encoding/json emits for these types, in any key order and
// with any whitespace — is "not mine" and is decoded by json.Unmarshal
// instead, and FuzzDecodeRequest holds the two equal wherever the scanner
// does answer. See DESIGN.md S14.

// maxPooledBody bounds what a compileCall may keep between requests: one
// that served a larger body is dropped, so the pool holds a handful of
// small buffers, never one oversized request's memory.
const maxPooledBody = 1 << 20

// compileCall is the reusable memory of one POST /v1/compile: the body as
// received and the request decoded from it. Nothing in req aliases body.
type compileCall struct {
	body []byte
	req  CompileRequest

	// The scanner's strings: their bytes back to back in names, and which
	// field each belongs to, so that the whole request's names cost one
	// allocation.
	names []byte
	refs  []nameRef

	// The server's options table, scan's entry for the options (nil: decoded).
	table   *optionsTable
	known   *optionsEntry
	options []byte

	// shared is set once something that can outlive the handler holds body
	// or req — a peer transport sending body on, a detached run that may
	// still import req's graph. Such a call is never pooled again.
	shared bool
}

// nameRef places one scanned string: names[previous end:end] is the filter
// name of Nodes[node], or the graph's own name when node is -1.
type nameRef struct{ node, end int }

var callPool = sync.Pool{New: func() any { return new(compileCall) }}

// release returns c to the pool when the handler was its last holder and it
// is small enough to keep; otherwise it is the collector's.
func (c *compileCall) release() {
	if !c.shared && len(c.body) <= maxPooledBody {
		callPool.Put(c)
	}
}

// graph is the core.GraphSource over the decoded request: the validation a
// hit never needs, run when the service has to compile.
func (c *compileCall) graph() (*sdf.Graph, error) {
	g, err := sdf.ImportGraph(c.req.Graph)
	if err != nil {
		return nil, importError{err}
	}
	return g, nil
}

// importError marks a graph-source failure on its way back through the
// service: the request's own fault (400), however late it surfaced.
type importError struct{ err error }

func (e importError) Error() string { return "importing graph: " + e.err.Error() }
func (e importError) Unwrap() error { return e.err }

// Which decoder answered and where the options came from: request.decode's note.
const (
	byScan     = "scan options=imported"
	byTable    = "scan options=reused"
	byFallback = "fallback options=imported"
)

// decode reads the request body into c.body and decodes it into c.req,
// reporting which decoder answered. declared is the request's
// Content-Length (-1 unknown).
func (c *compileCall) decode(r io.Reader, declared int64) (how string, err error) {
	if c.body, err = readBody(r, c.body, declared); err != nil {
		return "", err
	}
	if c.scan() {
		return byScan, nil
	}
	// The struct is zeroed first: json.Unmarshal merges into what it is
	// given, and what it is given here is the previous request.
	c.req = CompileRequest{}
	return byFallback, json.Unmarshal(c.body, &c.req)
}

// readBody reads r to EOF into buf's memory. A declared length sizes the
// buffer up front — one allocation at most, none once the pool is warm,
// where io.ReadAll doubles its way up — but only to maxPooledBody: past
// that the buffer grows as bytes actually arrive, so a declared length
// alone cannot make the server allocate.
func readBody(r io.Reader, buf []byte, declared int64) ([]byte, error) {
	buf = buf[:0]
	if hint := min(declared, maxPooledBody); int64(cap(buf)) <= hint {
		buf = make([]byte, 0, hint+512) // room for the read that finds EOF
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scan decodes c.body into c.req in one pass, reusing c.req's slices. It
// reports false — leaving c.req in no particular state — when the body is
// not in the scanner's grammar: an unknown, duplicate or case-variant key,
// a string with an escape or a non-ASCII byte, null, an integer field that
// is not a plain integer of at most 18 digits, malformed JSON, an options
// value json.Unmarshal rejects. Options the table knows are not decoded.
func (c *compileCall) scan() bool {
	s := scanner{b: c.body, c: c}
	c.names, c.refs, c.known = c.names[:0], c.refs[:0], nil
	g := &c.req.Graph
	g.Name, g.Nodes, g.Edges = "", g.Nodes[:0], g.Edges[:0]
	c.req.Options = artifact.Options{}

	var options []byte
	ok := s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "graph":
			return 0, s.graph(g)
		case "options":
			// Carved out, not scanned: a few hundred bytes whose schema
			// belongs to three other packages.
			options, ok = s.rawObject()
			return 1, ok
		}
		return 0, false
	})
	if s.ws(); !ok || s.i != len(s.b) {
		return false
	}
	if c.known, c.options = c.table.get(options), options; c.known != nil {
		c.req.Options = c.known.wire
	} else if options != nil && json.Unmarshal(options, &c.req.Options) != nil {
		return false
	}

	all, start := string(c.names), 0
	for _, ref := range c.refs {
		if ref.node < 0 {
			g.Name = all[start:ref.end]
		} else {
			g.Nodes[ref.node].Filter.Name = all[start:ref.end]
		}
		start = ref.end
	}
	return true
}

// optionsTable maps options bodies, byte for byte, to their imported options
// and key bytes: direct-mapped, bounded, successes only (DESIGN.md S14).
type optionsTable struct {
	slots [256]atomic.Pointer[optionsEntry]
}

var optionsSeed = maphash.MakeSeed()

// optionsEntry is never written once stored: opts.Topo is read-only after
// topology.Import, and the handler sets Workers on its own copy of opts.
type optionsEntry struct {
	raw  []byte
	wire artifact.Options
	opts driver.Options
	key  []byte // core.OptionsKey(opts)
}

// get returns the entry for raw, or nil; a nil table knows nothing.
func (t *optionsTable) get(raw []byte) *optionsEntry {
	if t != nil {
		if e := t.slots[maphash.Bytes(optionsSeed, raw)%uint64(len(t.slots))].Load(); e != nil && bytes.Equal(e.raw, raw) {
			return e
		}
	}
	return nil
}

// add imports and keys the options of c's request, and stores the entry
// when the scanner carved their bytes out of the body.
func (t *optionsTable) add(c *compileCall, how string) (e *optionsEntry, err error) {
	e = &optionsEntry{wire: c.req.Options}
	if e.opts, err = driver.ImportOptions(e.wire); err != nil {
		return nil, fmt.Errorf("importing options: %w", err)
	}
	if e.key, err = core.OptionsKey(e.opts); err == nil && how == byScan {
		e.raw = bytes.Clone(c.options)
		t.slots[maphash.Bytes(optionsSeed, e.raw)%uint64(len(t.slots))].Store(e)
	}
	return e, err
}

// scanner is a cursor over one request body. Every method skips leading
// whitespace, consumes what it names and reports whether it was there.
type scanner struct {
	b []byte
	i int
	c *compileCall
}

func (s *scanner) ws() {
	for s.i < len(s.b) && s.b[s.i] <= ' ' {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(ch byte) bool {
	if s.ws(); s.i < len(s.b) && s.b[s.i] == ch {
		s.i++
		return true
	}
	return false
}

// more steps to the next element of an object or array whose opener has
// been consumed: it takes the closer (more false), or the comma every
// element but the first must follow.
func (s *scanner) more(first bool, closer byte) (more, ok bool) {
	if s.eat(closer) {
		return false, true
	}
	return true, first || s.eat(',')
}

// object consumes an object, calling member with each key met to consume
// its value and number it (unknown keys, and known ones in another case,
// it refuses); a number met twice is a duplicate member and fails.
func (s *scanner) object(member func(key []byte) (uint, bool)) bool {
	if !s.eat('{') {
		return false
	}
	var seen uint
	for first := true; ; first = false {
		more, ok := s.more(first, '}')
		if !ok || !more {
			return ok
		}
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		bit, ok := member(key)
		if !ok || seen&(1<<bit) != 0 {
			return false
		}
		seen |= 1 << bit
	}
}

// array consumes an array, calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	for first := true; ; first = false {
		more, ok := s.more(first, ']')
		if !ok || !more {
			return ok
		}
		if !elem() {
			return false
		}
	}
}

// plain marks the bytes a scanned string may hold: printable ASCII but for
// the quote that ends it and the backslash that would start an escape.
var plain = func() (t [256]bool) {
	for ch := 0x20; ch < 0x80; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// str consumes a string of plain bytes and returns them; they alias the
// body.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && plain[s.b[s.i]] {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	return s.b[start : s.i-1], true
}

// name consumes a string and books it for node's filter (-1: the graph).
func (s *scanner) name(node int) bool {
	b, ok := s.str()
	if ok {
		s.c.names = append(s.c.names, b...)
		s.c.refs = append(s.c.refs, nameRef{node, len(s.c.names)})
	}
	return ok
}

// digits consumes a run of decimal digits and returns how many.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// integer consumes the JSON integer "-"? ("0" | [1-9][0-9]*).
func (s *scanner) integer() (text []byte, ok bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	first := s.i
	n := s.digits()
	return s.b[start:s.i], n == 1 || (n > 1 && s.b[first] != '0')
}

// int64 consumes an integer of at most 18 digits — so it cannot overflow —
// with no fraction or exponent: what follows must be the comma or closer
// the caller looks for next.
func (s *scanner) int64() (int64, bool) {
	text, ok := s.integer()
	if !ok {
		return 0, false
	}
	neg := text[0] == '-'
	if neg {
		text = text[1:]
	}
	if len(text) > 18 {
		return 0, false
	}
	var v int64
	for _, d := range text {
		v = v*10 + int64(d-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// int is int64 for an int field; where int is narrower, a value that does
// not fit is json.Unmarshal's to refuse.
func (s *scanner) int() (int, bool) {
	v, ok := s.int64()
	return int(v), ok && int64(int(v)) == v
}

// float consumes any JSON number and converts it as encoding/json does.
func (s *scanner) float() (float64, bool) {
	text, ok := s.integer()
	if !ok {
		return 0, false
	}
	start := s.i - len(text)
	if s.i < len(s.b) && s.b[s.i] == '.' {
		if s.i++; s.digits() == 0 {
			return 0, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		if s.i++; s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

func (s *scanner) bool() (v, ok bool) {
	s.ws()
	switch rest := s.b[s.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// rawObject consumes one object and returns its bytes, finding its end by
// bracket depth alone: whether they are valid is json.Unmarshal's to say.
func (s *scanner) rawObject() ([]byte, bool) {
	if !s.eat('{') {
		return nil, false
	}
	start, depth := s.i-1, 1
	for s.i < len(s.b) {
		ch := s.b[s.i]
		s.i++
		switch ch {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return s.b[start:s.i], true
			}
		case '"':
			for closed := false; !closed; s.i++ {
				if s.i >= len(s.b) {
					return nil, false
				}
				switch s.b[s.i] {
				case '\\':
					s.i++
				case '"':
					closed = true
				}
			}
		}
	}
	return nil, false
}

// ints and floats consume an array of numbers into dst's memory.
func (s *scanner) ints(dst []int) ([]int, bool) {
	dst = dst[:0]
	ok := s.array(func() bool {
		v, ok := s.int()
		dst = append(dst, v)
		return ok
	})
	return dst, ok
}

func (s *scanner) floats(dst []sdf.Token) ([]sdf.Token, bool) {
	dst = dst[:0]
	ok := s.array(func() bool {
		v, ok := s.float()
		dst = append(dst, v)
		return ok
	})
	return dst, ok
}

func (s *scanner) graph(g *sdf.GraphSpec) bool {
	return s.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "name":
			return 0, s.name(-1)
		case "nodes":
			return 1, s.array(func() bool { return s.node(g) })
		case "edges":
			return 2, s.array(func() bool { return s.edge(g) })
		}
		return 0, false
	})
}

// node consumes the next node of g into the slot after the last, keeping
// the slices of whichever node last lived there.
func (s *scanner) node(g *sdf.GraphSpec) bool {
	if len(g.Nodes) < cap(g.Nodes) {
		g.Nodes = g.Nodes[:len(g.Nodes)+1]
	} else {
		g.Nodes = append(g.Nodes, sdf.NodeSpec{})
	}
	index := len(g.Nodes) - 1
	n := &g.Nodes[index]
	f := &n.Filter
	*n = sdf.NodeSpec{Filter: sdf.FilterSpec{Inputs: f.Inputs[:0], Outputs: f.Outputs[:0], Init: f.Init[:0]}}
	return s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "filter":
			return 0, s.filter(f, index)
		case "pipe":
			n.Pipe, ok = s.int()
			return 1, ok
		}
		return 0, false
	})
}

func (s *scanner) filter(f *sdf.FilterSpec, index int) bool {
	return s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "name":
			bit, ok = 0, s.name(index)
		case "kind":
			bit = 1
			f.Kind, ok = s.int()
		case "ops":
			bit = 2
			f.Ops, ok = s.int64()
		case "zeroCopy":
			bit = 3
			f.ZeroCopy, ok = s.bool()
		case "inputs":
			bit, ok = 4, s.array(func() bool { return s.port(f) })
		case "outputs":
			bit = 5
			f.Outputs, ok = s.ints(f.Outputs)
		case "init":
			bit = 6
			f.Init, ok = s.floats(f.Init)
		}
		return bit, ok
	})
}

func (s *scanner) port(f *sdf.FilterSpec) bool {
	var p sdf.PortSpec
	ok := s.object(func(key []byte) (bit uint, ok bool) {
		switch string(key) {
		case "pop":
			bit = 0
			p.Pop, ok = s.int()
		case "peek":
			bit = 1
			p.Peek, ok = s.int()
		}
		return bit, ok
	})
	f.Inputs = append(f.Inputs, p)
	return ok
}

func (s *scanner) edge(g *sdf.GraphSpec) bool {
	if len(g.Edges) < cap(g.Edges) {
		g.Edges = g.Edges[:len(g.Edges)+1]
	} else {
		g.Edges = append(g.Edges, sdf.EdgeSpec{})
	}
	e := &g.Edges[len(g.Edges)-1]
	*e = sdf.EdgeSpec{Initial: e.Initial[:0]}
	return s.object(func(key []byte) (bit uint, ok bool) {
		var field *int
		switch string(key) {
		case "src":
			bit, field = 0, &e.Src
		case "srcPort":
			bit, field = 1, &e.SrcPort
		case "dst":
			bit, field = 2, &e.Dst
		case "dstPort":
			bit, field = 3, &e.DstPort
		case "initial":
			e.Initial, ok = s.floats(e.Initial)
			return 4, ok
		default:
			return 0, false
		}
		*field, ok = s.int()
		return bit, ok
	})
}
