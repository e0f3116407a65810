package sdf

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// identity is a graph's memoized structural identity: the two hashes of
// one canonical byte walk, each filled in when first asked for, plus the
// shape the walk was taken at (the same staleness guard the CSR adjacency
// memo uses — graphs are not restructured after
// Builder.Graph/Extract/Import).
type identity struct {
	nodes, edges   int
	hasFNV, hasSHA bool
	fnv            uint64
	sha            [sha256.Size]byte
}

// identPointer is the memo slot type, declared like adjPointer so
// graph.go's struct stays readable.
type identPointer = atomic.Pointer[identity]

// canon is the canonical structural encoding under construction: integers
// are 8-byte little-endian, strings and token lists length-prefixed, floats
// by bit pattern, flags one byte. Every field is fixed-width or carries its
// length, so the encoding is injective — two different structures never
// share one byte string.
type canon []byte

func (c *canon) i64(v int64) { *c = binary.LittleEndian.AppendUint64(*c, uint64(v)) }

func (c *canon) int(v int) { c.i64(int64(v)) }

func (c *canon) str(s string) {
	c.int(len(s))
	*c = append(*c, s...)
}

func (c *canon) flag(v bool) {
	if v {
		*c = append(*c, 1)
	} else {
		*c = append(*c, 0)
	}
}

func (c *canon) toks(ts []Token) {
	c.int(len(ts))
	for _, tok := range ts {
		*c = binary.LittleEndian.AppendUint64(*c, math.Float64bits(tok))
	}
}

// canonical appends the graph's canonical structural encoding to buf: its
// name, every node's filter signature (name, rates, ops, kind, flags,
// initial state), pipeline grouping, and every edge with its endpoints,
// ports, rates and delay tokens.
func (g *Graph) canonical(buf []byte) []byte {
	c := canon(buf)
	c.str(g.Name)
	c.int(len(g.Nodes))
	for _, n := range g.Nodes {
		f := n.Filter
		c.str(f.Name)
		c.int(int(f.Kind))
		c.int(n.Pipe)
		c.i64(f.Ops)
		c.flag(f.ZeroCopy)
		c.int(len(f.Inputs))
		for _, in := range f.Inputs {
			c.int(in.Pop)
			c.int(in.Peek)
		}
		c.int(len(f.Outputs))
		for _, push := range f.Outputs {
			c.int(push)
		}
		c.toks(f.Init)
	}
	c.int(len(g.Edges))
	for _, e := range g.Edges {
		c.int(int(e.Src))
		c.int(e.SrcPort)
		c.int(int(e.Dst))
		c.int(e.DstPort)
		c.int(e.Push)
		c.int(e.Pop)
		c.int(e.Peek)
		c.toks(e.Initial)
	}
	return c
}

// canonical is the same walk over a graph's wire form, so a spec and the
// graph ImportGraph builds from it encode to the same bytes
// (TestSpecDigestMatchesGraph and FuzzSpecDigest hold them equal). Edge
// rates come from the ports, as ConnectDelayed reads them; on an unvalidated
// spec an edge joining a missing node or port writes rates of 0, which no
// importable graph has (its rates are positive).
func (spec *GraphSpec) canonical(buf []byte) []byte {
	c := canon(buf)
	c.str(spec.Name)
	c.int(len(spec.Nodes))
	for i := range spec.Nodes {
		n := &spec.Nodes[i]
		f := &n.Filter
		c.str(f.Name)
		c.int(f.Kind)
		c.int(n.Pipe)
		c.i64(f.Ops)
		c.flag(f.ZeroCopy)
		c.int(len(f.Inputs))
		for _, in := range f.Inputs {
			c.int(in.Pop)
			c.int(in.Peek)
		}
		c.int(len(f.Outputs))
		for _, push := range f.Outputs {
			c.int(push)
		}
		c.toks(f.Init)
	}
	c.int(len(spec.Edges))
	for i := range spec.Edges {
		e := &spec.Edges[i]
		c.int(e.Src)
		c.int(e.SrcPort)
		c.int(e.Dst)
		c.int(e.DstPort)
		push, in, _ := spec.edgeRates(e)
		c.int(push)
		c.int(in.Pop)
		c.int(in.Peek)
		c.toks(e.Initial)
	}
	return c
}

// SpecDigest is Graph.Digest computed from the wire form, without building
// the graph: SpecDigest(&spec) == g.Digest() for every g that
// ImportGraph(spec) returns. It validates nothing — a spec ImportGraph
// would reject still has a digest, one that no graph shares (the encoding
// is injective), so it can only ever miss a cache keyed by digests of
// compiled graphs.
func SpecDigest(spec *GraphSpec) [sha256.Size]byte {
	bp := canonBufs.Get().(*[]byte)
	buf := spec.canonical((*bp)[:0])
	sum := sha256.Sum256(buf)
	*bp = buf
	canonBufs.Put(bp)
	return sum
}

// ident returns the memoized identity with at least the asked-for hash
// filled in, walking the graph when it is not there yet. Each hash costs one
// walk and one pass over the bytes, once per graph — the serving path only
// ever asks for the digest. Concurrent first calls may each walk (identical
// results, one wins).
func (g *Graph) ident(fnv bool) *identity {
	id := identity{nodes: len(g.Nodes), edges: len(g.Edges)}
	if old := g.identCache.Load(); old != nil && old.nodes == id.nodes && old.edges == id.edges {
		if (fnv && old.hasFNV) || (!fnv && old.hasSHA) {
			return old
		}
		id = *old
	}
	bp := canonBufs.Get().(*[]byte)
	buf := g.canonical((*bp)[:0])
	if fnv {
		id.hasFNV, id.fnv = true, 14695981039346656037
		for _, b := range buf {
			id.fnv = (id.fnv ^ uint64(b)) * 1099511628211 // FNV-1a 64
		}
	} else {
		id.hasSHA, id.sha = true, sha256.Sum256(buf)
	}
	*bp = buf
	canonBufs.Put(bp)
	g.identCache.Store(&id)
	return &id
}

// canonBufs recycles the canonical-encoding buffers: a server derives one
// digest per request from the request's spec, and the encoding (~100 bytes
// per node) is garbage as soon as it is hashed.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

// Fingerprint returns a stable 64-bit structural hash (FNV-1a) of the
// graph's canonical encoding. Two graphs with equal fingerprints compile to
// the same partitions, mapping and plan; artifacts record it so a decoded
// artifact can be checked against the graph it is executed with. It is not
// collision-resistant — cache identity uses Digest.
//
// The hash deliberately excludes the filters' work-function closures (Go
// functions are not hashable); it assumes — as the benchmark registry
// guarantees — that a filter's name plus rate/cost signature identifies its
// semantics.
func (g *Graph) Fingerprint() uint64 { return g.ident(true).fnv }

// Digest returns the SHA-256 of the same canonical encoding Fingerprint
// hashes: the collision-resistant graph component of the compile cache's
// identity (core.KeyOf).
func (g *Graph) Digest() [sha256.Size]byte { return g.ident(false).sha }
