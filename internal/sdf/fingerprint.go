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

// canonical appends the graph's canonical structural encoding to buf: its
// name, every node's filter signature (name, rates, ops, kind, flags,
// initial state), pipeline grouping, and every edge with its endpoints,
// ports, rates and delay tokens. Integers are 8-byte little-endian,
// strings length-prefixed, floats by bit pattern.
func (g *Graph) canonical(buf []byte) []byte {
	i := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v))) }
	str := func(s string) {
		i(len(s))
		buf = append(buf, s...)
	}
	toks := func(ts []Token) {
		i(len(ts))
		for _, tok := range ts {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tok))
		}
	}
	str(g.Name)
	i(len(g.Nodes))
	for _, n := range g.Nodes {
		f := n.Filter
		str(f.Name)
		i(int(f.Kind))
		i(n.Pipe)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Ops))
		if f.ZeroCopy {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		i(len(f.Inputs))
		for _, in := range f.Inputs {
			i(in.Pop)
			i(in.Peek)
		}
		i(len(f.Outputs))
		for _, push := range f.Outputs {
			i(push)
		}
		toks(f.Init)
	}
	i(len(g.Edges))
	for _, e := range g.Edges {
		i(int(e.Src))
		i(e.SrcPort)
		i(int(e.Dst))
		i(e.DstPort)
		i(e.Push)
		i(e.Pop)
		i(e.Peek)
		toks(e.Initial)
	}
	return buf
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
// digest per request from a freshly imported graph, and the encoding (~100
// bytes per node) is garbage as soon as it is hashed.
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
