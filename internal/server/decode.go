package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"

	"streammap/internal/artifact"
	"streammap/internal/core"
	"streammap/internal/driver"
	"streammap/internal/sdf"
)

// The front of POST /v1/compile. A daemon mostly hands known artifacts
// back, so what a request costs before its key exists is what a hit costs:
// the body is read into memory the previous request used and decoded in
// one pass into a CompileRequest whose slices are the previous request's
// too. This file reads the envelope and carves the options out; the graph
// is sdf's decoder's (GraphSpec.ScanJSON), the one artifacts reach through
// json.Unmarshal. encoding/json stays the definition of the wire contract:
// anything outside the narrow grammar the scan knows — which covers what
// encoding/json emits for these types, in any key order and with any
// whitespace — is "not mine", and the whole body is decoded by
// json.Unmarshal instead. FuzzDecodeRequest holds the two equal wherever
// the scan does answer. See DESIGN.md S14.

// maxPooledBody bounds what a compileCall may keep between requests: one
// that served a larger body is dropped, so the pool holds a handful of
// small buffers, never one oversized request's memory.
const maxPooledBody = 1 << 20

// compileCall is the reusable memory of one POST /v1/compile: the body as
// received and the request decoded from it. Nothing in req aliases body.
type compileCall struct {
	body []byte
	req  CompileRequest

	// The server's options table, scan's entry for the options (nil: decoded).
	table   *optionsTable
	known   *optionsEntry
	options []byte

	// shared is set once something that can outlive the handler holds body
	// or req — a peer transport sending body on, a detached run that may
	// still import req's graph. Such a call is never pooled again.
	shared bool
}

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

// scan decodes c.body into c.req in one pass, reusing c.req's slices: it
// reads the envelope, hands the graph to sdf's scanner where it starts and
// carves the options out by bracket depth. It reports false — leaving c.req
// in no particular state — when the body is not in the grammar: an unknown,
// duplicate or case-variant key, a graph sdf's scanner declines, malformed
// JSON, an options value json.Unmarshal rejects. Options the table knows are
// not decoded.
func (c *compileCall) scan() bool {
	s := envelope{b: c.body}
	g := &c.req.Graph
	g.Name, g.Nodes, g.Edges = "", g.Nodes[:0], g.Edges[:0]
	c.req.Options, c.known = artifact.Options{}, nil

	var options []byte
	if !s.eat('{') {
		return false
	}
	for first, seen := true, [2]bool{}; !s.eat('}'); first = false {
		if !first && !s.eat(',') {
			return false
		}
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "graph":
			s.i, ok = g.ScanJSON(s.b, s.i)
			ok, seen[0] = ok && !seen[0], true
		case "options":
			// Carved out, not scanned: a few hundred bytes whose schema
			// belongs to three other packages.
			options, ok = s.rawObject()
			ok, seen[1] = ok && !seen[1], true
		default:
			return false
		}
		if !ok {
			return false
		}
	}
	if s.ws(); s.i != len(s.b) {
		return false
	}
	if c.known, c.options = c.table.get(options), options; c.known != nil {
		c.req.Options = c.known.wire
	} else if options != nil && json.Unmarshal(options, &c.req.Options) != nil {
		return false
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

// envelope is a cursor over one request body's top-level object. Every
// method skips leading whitespace, consumes what it names and reports
// whether it was there.
type envelope struct {
	b []byte
	i int
}

func (s *envelope) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

func (s *envelope) eat(ch byte) bool {
	if s.ws(); s.i < len(s.b) && s.b[s.i] == ch {
		s.i++
		return true
	}
	return false
}

// str consumes a string and returns the bytes between its quotes. Keys are
// only compared with names that need no escape, so an escape, read raw,
// can only fail to match.
func (s *envelope) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	s.i += n + 1
	return s.b[s.i-n-1 : s.i-1], true
}

// rawObject consumes one object and returns its bytes, finding its end by
// bracket depth alone: whether they are valid is json.Unmarshal's to say.
func (s *envelope) rawObject() ([]byte, bool) {
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
