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
// the scan reads exactly what json.Marshal writes for a CompileRequest —
// graph, then options, no whitespace but after the closing brace — and
// anything else, a reordered or indented body among it, is decoded whole
// by json.Unmarshal instead. FuzzDecodeRequest holds the two equal
// wherever the scan does answer. See DESIGN.md S14.

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

// The envelope as json.Marshal writes a CompileRequest around its graph
// and options.
var (
	graphKey   = []byte(`{"graph":`)
	optionsKey = []byte(`,"options":`)
)

// scan decodes c.body into c.req in one pass, reusing c.req's slices: it
// reads the envelope in json.Marshal's order, hands the graph to sdf's
// scanner and carves the options out by bracket depth. It reports false —
// leaving c.req in no particular state — when the body is not as
// json.Marshal writes it: members in another order, missing, unknown or
// repeated, a graph sdf's scanner declines, malformed JSON, an options
// value json.Unmarshal rejects. Options the table knows are not decoded.
func (c *compileCall) scan() bool {
	b := c.body
	c.req.Options, c.known = artifact.Options{}, nil
	if !bytes.HasPrefix(b, graphKey) {
		return false
	}
	i, ok := c.req.Graph.ScanJSON(b, len(graphKey))
	if !ok {
		return false
	}
	var options []byte
	if bytes.HasPrefix(b[i:], optionsKey) {
		// Carved out, not scanned: a few hundred bytes whose schema belongs
		// to three other packages.
		if options, ok = rawObject(b[i+len(optionsKey):]); !ok {
			return false
		}
		i += len(optionsKey) + len(options)
	}
	if i == len(b) || b[i] != '}' || len(bytes.TrimLeft(b[i+1:], " \t\r\n")) != 0 {
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

// rawObject returns the object b starts with, finding its end by bracket
// depth alone: whether it is valid is json.Unmarshal's to say.
func rawObject(b []byte) ([]byte, bool) {
	if len(b) == 0 || b[0] != '{' {
		return nil, false
	}
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return b[:i+1], true
			}
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		}
	}
	return nil, false
}
