package sdf

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
	"sync"
)

// The JSON decoder of GraphSpec, shared by compile requests and artifacts.
// encoding/json stays the definition of the wire form. The fast path reads
// exactly the bytes json.Marshal writes for a GraphSpec: every object's
// members in the encoder's order, each key matched as a literal with its
// quotes and colon (`,"kind":`), no whitespace. At the first byte it does
// not expect it declines, and json.Unmarshal decodes the whole value
// instead; where it answers, it answers as json.Unmarshal does
// (FuzzGraphSpecJSON). Every request and artifact the project writes is
// json.Marshal output, so the fast path serves all of that traffic; a
// reordered, indented or hand-written body gets the same answer, only more
// slowly. See DESIGN.md S14.

// graphJSON is GraphSpec without its decoder: what json.Unmarshal fills
// when the scanner declines.
type graphJSON GraphSpec

// UnmarshalJSON decodes data into g as json.Unmarshal decodes a GraphSpec
// field by field, reusing g's slices; g is replaced, not merged into.
func (g *GraphSpec) UnmarshalJSON(data []byte) error {
	if end, ok := g.ScanJSON(data, 0); ok {
		if s := (scanner{b: data, i: end}); s.ws() == len(data) {
			return nil
		}
	}
	*g = GraphSpec{}
	return json.Unmarshal(data, (*graphJSON)(g))
}

// ScanJSON decodes the graph object that starts at data[i], after any
// whitespace, into g, reusing g's node, edge, port and token slices, and
// returns the index just past it; the names of the graph and its filters
// cost one allocation, and nothing in g aliases data. It reports false —
// g then in no particular state — when the value is not as json.Marshal
// writes it: a member out of order, unknown, repeated or in another case,
// whitespace inside it, a string with an escape or a non-ASCII byte, null
// anywhere but as a list, an integer field that is not a plain integer of
// at most 18 digits, malformed JSON. The caller then decodes with
// json.Unmarshal.
func (g *GraphSpec) ScanJSON(data []byte, i int) (end int, ok bool) {
	s := scanners.Get().(*scanner)
	s.b, s.i, s.names, s.refs = data, i, s.names[:0], s.refs[:0]
	g.Name, g.Nodes, g.Edges = "", g.Nodes[:0], g.Edges[:0]
	s.ws()
	if ok = s.is(&litName) && s.name(-1) &&
		s.is(&litNodes) && s.array(func() bool { return s.node(g) }) &&
		s.is(&litEdges) && s.array(func() bool { return s.edge(g) }) && s.is(&litClose); ok {
		all, start := string(s.names), 0
		for _, ref := range s.refs {
			if ref.node < 0 {
				g.Name = all[start:ref.end]
			} else {
				g.Nodes[ref.node].Filter.Name = all[start:ref.end]
			}
			start = ref.end
		}
	}
	end, s.b = s.i, nil
	scanners.Put(s)
	return end, ok
}

// scanner is a cursor over one graph value, with the names met so far back
// to back in names and which field each belongs to in refs. Its methods
// consume what they name and report whether it was there; none skips
// whitespace.
type scanner struct {
	b     []byte
	i     int
	names []byte
	refs  []nameRef
}

// nameRef places one name: names[previous end:end] is the filter name of
// Nodes[node], or the graph's own name when node is -1.
type nameRef struct{ node, end int }

var scanners = sync.Pool{New: func() any { return new(scanner) }}

// ws skips whitespace and returns the new position; any byte above the
// space ends it at once.
func (s *scanner) ws() int {
	for s.i < len(s.b) && s.b[s.i] <= ' ' && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
	return s.i
}

func (s *scanner) eat(ch byte) bool {
	if s.i < len(s.b) && s.b[s.i] == ch {
		s.i++
		return true
	}
	return false
}

// A literal is text json.Marshal writes — a key with its quotes and colon,
// a closing brace, null, true, false — kept as two masked words, so that
// matching it costs two loads and two compares rather than a call to
// compare bytes.
type literal struct {
	text       string
	word, mask [2]uint64
}

func newLiteral(text string) (l literal) {
	if len(text) > 16 {
		panic("sdf: a literal is at most two words")
	}
	var w, m [16]byte
	copy(w[:], text)
	for k := range text {
		m[k] = 0xFF
	}
	l.text = text
	for h := range 2 {
		l.word[h], l.mask[h] = binary.LittleEndian.Uint64(w[8*h:]), binary.LittleEndian.Uint64(m[8*h:])
	}
	return l
}

var (
	litFilter, litName, litKind, litOps = newLiteral(`{"filter":`), newLiteral(`{"name":`), newLiteral(`,"kind":`), newLiteral(`,"ops":`)
	litZeroCopy, litInputs, litPop      = newLiteral(`,"zeroCopy":`), newLiteral(`,"inputs":`), newLiteral(`{"pop":`)
	litPeek, litOutputs, litInit        = newLiteral(`,"peek":`), newLiteral(`,"outputs":`), newLiteral(`,"init":`)
	litPipe, litSrc, litSrcPort         = newLiteral(`},"pipe":`), newLiteral(`{"src":`), newLiteral(`,"srcPort":`)
	litDst, litDstPort, litInitial      = newLiteral(`,"dst":`), newLiteral(`,"dstPort":`), newLiteral(`,"initial":`)
	litNodes, litEdges                  = newLiteral(`,"nodes":`), newLiteral(`,"edges":`)
	litClose, litNull                   = newLiteral(`}`), newLiteral(`null`)
	litTrue, litFalse                   = newLiteral(`true`), newLiteral(`false`)
)

// is consumes l if the input continues with exactly it.
func (s *scanner) is(l *literal) bool {
	if b := s.b[s.i:]; len(b) >= 16 {
		if binary.LittleEndian.Uint64(b)&l.mask[0] != l.word[0] || binary.LittleEndian.Uint64(b[8:])&l.mask[1] != l.word[1] {
			return false
		}
	} else if len(b) < len(l.text) || string(b[:len(l.text)]) != l.text {
		return false
	}
	s.i += len(l.text)
	return true
}

// array consumes an array, calling elem to consume each element, or the
// null encoding/json writes for a nil list.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return s.is(&litNull)
	}
	if s.eat(']') {
		return true
	}
	for elem() {
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
	return false
}

// plain marks the bytes a scanned string may hold: printable ASCII but for
// the quote that ends it and the backslash that would start an escape.
var plain = func() (t [256]bool) {
	for ch := 0x20; ch < 0x80; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// name consumes a string of plain bytes and books it for node's filter
// (-1: the graph).
func (s *scanner) name(node int) bool {
	if !s.eat('"') {
		return false
	}
	start := s.i
	for s.i < len(s.b) && plain[s.b[s.i]] {
		s.i++
	}
	if !s.eat('"') {
		return false
	}
	s.names = append(s.names, s.b[start:s.i-1]...)
	s.refs = append(s.refs, nameRef{node, len(s.names)})
	return true
}

// atoi reads the JSON integer "-"? ("0" | [1-9][0-9]*) at b[i:], on a local
// index, and returns where it ends. It refuses more than 18 digits, so it
// cannot overflow; a fraction or an exponent is refused by the caller, which
// finds it where its comma or closer should be.
func atoi(b []byte, i int) (v int64, end int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if neg {
		v = -v
	}
	n := i - start
	return v, i, n == 1 || n > 1 && n <= 18 && b[start] != '0'
}

// int consumes an integer; where int is narrower than int64, a value that
// does not fit is json.Unmarshal's to refuse.
func (s *scanner) int() (v int, ok bool) {
	x, i, ok := atoi(s.b, s.i)
	s.i, v = i, int(x)
	return v, ok && int64(v) == x
}

// field consumes l and then an integer into *v.
func (s *scanner) field(l *literal, v *int) (ok bool) {
	if !s.is(l) {
		return false
	}
	*v, ok = s.int()
	return ok
}

// digits returns the end of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// float consumes any JSON number and converts it as encoding/json does.
func (s *scanner) float() (float64, bool) {
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	whole := digits(b, i)
	ok := whole == i+1 || whole > i+1 && b[i] != '0'
	if i = whole; ok && i < len(b) && b[i] == '.' {
		i = digits(b, i+1)
		ok = i > whole+1
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exponent := i
		i = digits(b, i)
		ok = i > exponent
	}
	s.i = i
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, ok && err == nil
}

func (s *scanner) bool() (v, ok bool) {
	if s.is(&litTrue) {
		return true, true
	}
	return false, s.is(&litFalse)
}

// list consumes an array of numbers into dst's memory.
func list[T any](s *scanner, dst []T, number func() (T, bool)) ([]T, bool) {
	dst = dst[:0]
	ok := s.array(func() bool {
		v, ok := number()
		dst = append(dst, v)
		return ok
	})
	return dst, ok
}

// next extends list by one element in the slot after the last and returns
// it; the slot keeps whatever memory the element last living there held.
func next[E any](list *[]E) *E {
	if len(*list) < cap(*list) {
		*list = (*list)[:len(*list)+1]
	} else {
		*list = append(*list, *new(E))
	}
	return &(*list)[len(*list)-1]
}

// node consumes the next node of g, its filter and its ports, into the
// slot after the last, keeping the slices of whichever node last lived
// there.
func (s *scanner) node(g *GraphSpec) (ok bool) {
	n, index := next(&g.Nodes), len(g.Nodes)-1
	f := &n.Filter
	// Zeroed, then given its slices back: a literal that kept them would be
	// built aside and copied.
	in, out, init := f.Inputs[:0], f.Outputs[:0], f.Init[:0]
	*n = NodeSpec{}
	f.Inputs, f.Outputs, f.Init = in, out, init
	if !s.is(&litFilter) || !s.is(&litName) || !s.name(index) || !s.field(&litKind, &f.Kind) || !s.is(&litOps) {
		return false
	}
	if f.Ops, s.i, ok = atoi(s.b, s.i); ok && s.is(&litZeroCopy) {
		f.ZeroCopy, ok = s.bool()
	}
	if ok && s.is(&litInputs) {
		ok = s.array(func() bool {
			p := next(&f.Inputs)
			return s.field(&litPop, &p.Pop) && s.field(&litPeek, &p.Peek) && s.is(&litClose)
		})
	}
	if ok && s.is(&litOutputs) {
		f.Outputs, ok = list(s, f.Outputs, s.int)
	}
	if ok && s.is(&litInit) {
		f.Init, ok = list(s, f.Init, s.float)
	}
	return ok && s.field(&litPipe, &n.Pipe) && s.is(&litClose)
}

// edge consumes the next edge of g as node does a node.
func (s *scanner) edge(g *GraphSpec) bool {
	e := next(&g.Edges)
	initial := e.Initial[:0]
	*e = EdgeSpec{Initial: initial}
	ok := s.field(&litSrc, &e.Src) && s.field(&litSrcPort, &e.SrcPort) &&
		s.field(&litDst, &e.Dst) && s.field(&litDstPort, &e.DstPort)
	if ok && s.is(&litInitial) {
		e.Initial, ok = list(s, e.Initial, s.float)
	}
	return ok && s.is(&litClose)
}
