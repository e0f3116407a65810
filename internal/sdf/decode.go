package sdf

import (
	"encoding/binary"
	"encoding/json"
	"slices"
	"strconv"
	"sync"
)

// The JSON decoder of GraphSpec, shared by compile requests and artifacts.
// encoding/json stays the definition of the wire form: a scanner written
// for this one schema answers what encoding/json emits for these types — in
// any key order, with any whitespace — and everything else is "not mine",
// decoded by json.Unmarshal instead; where it answers, it answers as
// json.Unmarshal does (FuzzGraphSpecJSON). Each node and edge is first read
// on an in-order path: its members in the order json.Marshal writes them,
// each key matched as a literal with its quotes and colon (`,"kind":`). At
// the first byte that path does not expect, the object is read again from
// its start by the any-order member loop. See DESIGN.md S14.

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
// g then in no particular state — when the value is outside the scanner's
// grammar: an unknown, duplicate or case-variant key, a string with an
// escape or a non-ASCII byte, null anywhere but as a list, an integer field
// that is not a plain integer of at most 18 digits, malformed JSON. The
// caller then decodes with json.Unmarshal.
func (g *GraphSpec) ScanJSON(data []byte, i int) (end int, ok bool) {
	s := scanners.Get().(*scanner)
	s.b, s.i, s.names, s.refs = data, i, s.names[:0], s.refs[:0]
	g.Name, g.Nodes, g.Edges = "", g.Nodes[:0], g.Edges[:0]
	if ok = s.object(graphKeys, func(k int) bool {
		switch k {
		case 0:
			return s.name(-1)
		case 1:
			return s.array(func() bool { return s.node(g) })
		}
		return s.array(func() bool { return s.edge(g) })
	}); ok {
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
// consume what they name and report whether it was there; punctuation
// skips the whitespace before it, and values are read only after that.
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

// handOverHook, when set, is called each time a node or an edge leaves the
// in-order path; tests use it to pin which bodies stay on that path.
var handOverHook func()

// ws skips whitespace and returns the new position; any byte above the
// space ends it at once.
func (s *scanner) ws() int {
	for s.i < len(s.b) && s.b[s.i] <= ' ' && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
	return s.i
}

func (s *scanner) eat(ch byte) bool {
	if s.ws() < len(s.b) && s.b[s.i] == ch {
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
	litClose, litNull                   = newLiteral(`}`), newLiteral(`null`)
	litTrue, litFalse                   = newLiteral(`true`), newLiteral(`false`)
)

// is consumes l if the input continues with exactly it; whitespace is not
// skipped.
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

// more steps to the next element of an object or array whose opener has
// been consumed: it takes the closer (more false), or the comma every
// element but the first must follow, and the whitespace after it.
func (s *scanner) more(first bool, closer byte) (more, ok bool) {
	if s.eat(closer) {
		return false, true
	}
	ok = first || s.eat(',')
	s.ws()
	return true, ok
}

// The members of each object, in the order encoding/json writes them.
var (
	graphKeys  = []string{"name", "nodes", "edges"}
	nodeKeys   = []string{"filter", "pipe"}
	filterKeys = []string{"name", "kind", "ops", "zeroCopy", "inputs", "outputs", "init"}
	portKeys   = []string{"pop", "peek"}
	edgeKeys   = []string{"src", "srcPort", "dst", "dstPort", "initial"}
)

// object is the any-order member loop: it consumes an object, calling
// member with the index in keys of each key met to consume its value. An
// unknown key, a known one in another case and a member met twice refuse
// the object.
func (s *scanner) object(keys []string, member func(k int) bool) bool {
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
		k := slices.Index(keys, string(key))
		if !ok || k < 0 || seen&(1<<k) != 0 || !s.eat(':') {
			return false
		}
		seen |= 1 << k
		if s.ws(); !member(k) {
			return false
		}
	}
}

// array consumes an array, calling elem to consume each element, or the
// null encoding/json writes for a nil list.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return s.is(&litNull)
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
// input.
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
		s.names = append(s.names, b...)
		s.refs = append(s.refs, nameRef{node, len(s.names)})
	}
	return ok
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

func (s *scanner) int64() (v int64, ok bool) {
	v, s.i, ok = atoi(s.b, s.i)
	return v, ok
}

// field consumes l and then an integer into *v (nil l: the integer alone);
// where int is narrower than int64, a value that does not fit is
// json.Unmarshal's to refuse.
func (s *scanner) field(l *literal, v *int) bool {
	if l != nil && !s.is(l) {
		return false
	}
	x, i, ok := atoi(s.b, s.i)
	s.i, *v = i, int(x)
	return ok && int64(*v) == x
}

func (s *scanner) int() (v int, ok bool) {
	ok = s.field(nil, &v)
	return v, ok
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

// handOver runs inOrder over the object at s.i; where it stops short, it
// rewinds the input and the names booked since and runs anyOrder from the
// object's start. reset empties the object before each.
func (s *scanner) handOver(reset func(), inOrder, anyOrder func() bool) bool {
	i, names, refs := s.i, len(s.names), len(s.refs)
	if reset(); inOrder() {
		return true
	}
	if handOverHook != nil {
		handOverHook()
	}
	s.i, s.names, s.refs = i, s.names[:names], s.refs[:refs]
	reset()
	return anyOrder()
}

// node consumes the next node of g into the slot after the last, keeping
// the slices of whichever node last lived there.
func (s *scanner) node(g *GraphSpec) bool {
	n, index := next(&g.Nodes), len(g.Nodes)-1
	f := &n.Filter
	return s.handOver(func() {
		// Zeroed, then given its slices back: a literal that kept them would
		// be built aside and copied.
		in, out, init := f.Inputs[:0], f.Outputs[:0], f.Init[:0]
		*n = NodeSpec{}
		f.Inputs, f.Outputs, f.Init = in, out, init
	}, func() bool {
		return s.nodeInOrder(n, index)
	}, func() bool {
		return s.object(nodeKeys, func(k int) bool {
			if k == 0 {
				return s.filter(f, index)
			}
			return s.field(nil, &n.Pipe)
		})
	})
}

// nodeInOrder is a node, its filter and its ports as json.Marshal writes
// them.
func (s *scanner) nodeInOrder(n *NodeSpec, index int) (ok bool) {
	f := &n.Filter
	if !s.is(&litFilter) || !s.is(&litName) || !s.name(index) || !s.field(&litKind, &f.Kind) || !s.is(&litOps) {
		return false
	}
	if f.Ops, ok = s.int64(); ok && s.is(&litZeroCopy) {
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

func (s *scanner) filter(f *FilterSpec, index int) bool {
	return s.object(filterKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			return s.name(index)
		case 1:
			return s.field(nil, &f.Kind)
		case 2:
			f.Ops, ok = s.int64()
		case 3:
			f.ZeroCopy, ok = s.bool()
		case 4:
			return s.array(func() bool {
				p := next(&f.Inputs)
				*p = PortSpec{}
				return s.object(portKeys, func(k int) bool { return s.field(nil, [...]*int{&p.Pop, &p.Peek}[k]) })
			})
		case 5:
			f.Outputs, ok = list(s, f.Outputs, s.int)
		default:
			f.Init, ok = list(s, f.Init, s.float)
		}
		return ok
	})
}

// edge consumes the next edge of g as node does a node.
func (s *scanner) edge(g *GraphSpec) bool {
	e := next(&g.Edges)
	return s.handOver(func() {
		initial := e.Initial[:0]
		*e = EdgeSpec{Initial: initial}
	}, func() bool {
		ok := s.field(&litSrc, &e.Src) && s.field(&litSrcPort, &e.SrcPort) &&
			s.field(&litDst, &e.Dst) && s.field(&litDstPort, &e.DstPort)
		if ok && s.is(&litInitial) {
			e.Initial, ok = list(s, e.Initial, s.float)
		}
		return ok && s.is(&litClose)
	}, func() bool {
		return s.object(edgeKeys, func(k int) (ok bool) {
			if k < 4 {
				return s.field(nil, [...]*int{&e.Src, &e.SrcPort, &e.Dst, &e.DstPort}[k])
			}
			e.Initial, ok = list(s, e.Initial, s.float)
			return ok
		})
	})
}
