package graph

import (
	"fmt"
	"slices"
)

// Bulk constructors. AddEdge keeps the sorted-adjacency invariant one
// insertion at a time, which costs O(deg) per edge and one append-growth
// allocation chain per node — fine for incremental mutation, wasteful for
// the bulk cases the system actually has: a server request carrying a
// complete edge list, and a unit-disk build that lists every edge of a
// deployment at once. The constructors below lay the adjacency out in a
// single flat backing array and fix the row order once, so building a
// 100k-node graph is two passes over the edges instead of 100k growing
// slices. FromFlatEdges, FromEdgeFunc and Builder share one CSR core
// (csr below): the first two build into fresh storage, Builder into
// storage it keeps from one build to the next.

// FromFlatEdges builds a graph over n nodes from a flat edge list
// u0, v0, u1, v1, …: the pairs may come in any order, a repeated edge is
// kept once, and every endpoint must be a valid node distinct from its
// partner (panic otherwise, like AddEdge). A list in canonical order —
// u < v in every pair, pairs strictly ascending by (u, v), which is what
// Graph.Edges and json.Marshal of its pairs give — is laid out without
// sorting a row. The graph gets the bitset view under AutoBitset's
// policy.
func FromFlatEdges(n int, edges []NodeID) *Graph {
	b := newCSR(New(n), nil)
	return b.flat(edges)
}

// Builder builds graphs as FromFlatEdges does, into storage it keeps: the
// row headers, the row offsets, the adjacency arena and the bitset view's
// words. A build reuses whatever is large enough and grows the rest, so
// once a Builder has built a graph of some size, building one no larger
// allocates nothing. The graph Build returns lives in that storage: it is
// valid until the next Build on the same Builder, and nothing may keep a
// reference to it, its rows or its view past then. The zero value is
// ready to use; a Builder is not safe for concurrent use.
type Builder struct {
	g     Graph
	off   []int
	arena []NodeID
	// words is the view's storage, kept across builds above
	// BitsetMaxNodes, which have no view.
	words []uint64
}

// Build returns the graph FromFlatEdges(n, edges) would, built in b's
// storage. The edges are read during the call only.
func (b *Builder) Build(n int, edges []NodeID) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	g := &b.g
	g.adj = resize(g.adj, n)
	g.bits = bitsetAdj{}
	c := newCSR(g, b.off)
	c.arena, c.words = b.arena, b.words
	c.flat(edges)
	b.off, b.arena = c.off, c.arena
	if g.bits.rows != nil {
		b.words = g.bits.rows
	}
	return g
}

// FromEdgeFunc builds a graph over n nodes from an edge stream, compactly:
// visit is called twice and must emit the same undirected edges both
// times (any order; duplicates allowed and deduplicated, matching
// AddEdge's idempotence). The first pass counts degrees, the second fills
// a flat adjacency arena, then each row is sorted and compacted in place,
// unless the second pass emitted the edges in canonical order
// (FromFlatEdges). Endpoints must be valid, distinct nodes (panic
// otherwise, like AddEdge). The graph gets the bitset view under
// AutoBitset's policy.
func FromEdgeFunc(n int, visit func(emit func(u, v NodeID))) *Graph {
	b := newCSR(New(n), nil)
	emit := b.emit
	visit(emit)
	b.place()
	visit(emit)
	return b.finish()
}

// csr is the one CSR construction behind FromFlatEdges, FromEdgeFunc and
// Builder: a count pass over the edges, a prefix sum into row offsets, a
// fill pass into one flat arena, then the rows cut out of the arena, each
// sorted and deduplicated unless the fill pass saw canonical order.
type csr struct {
	g *Graph
	// off[v+1] counts row v's arcs in the count pass; place turns off[v]
	// into row v's start, and the fill pass advances it to the row's end.
	off []int
	// arena and words are storage that place and finish reuse when it is
	// large enough: nil for a fresh graph, a Builder's from its last
	// build.
	arena []NodeID
	words []uint64
	// filling is set by place: emit fills instead of counting.
	filling bool
	// prevU, prevV are the last pair filled. canonical holds while every
	// pair filled had u < v and came after its predecessor in (u, v)
	// order. Then row w receives its smaller neighbors, from the pairs
	// (u, w) in ascending u, before its larger ones, from the pairs
	// (w, v) in ascending v: sorted, with no duplicate.
	prevU, prevV NodeID
	canonical    bool
}

// newCSR starts a construction of g, whose row headers are already
// sized, with its row offsets in off when off can hold them.
func newCSR(g *Graph, off []int) csr {
	off = resize(off, len(g.adj)+1)
	clear(off)
	return csr{g: g, off: off, prevU: -1, canonical: true}
}

// resize returns s at length n, in s's own storage when it is large
// enough. The contents are arbitrary.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// flat runs the construction over a flat edge list.
func (b *csr) flat(edges []NodeID) *Graph {
	if len(edges)%2 != 0 {
		panic("graph: FromFlatEdges odd-length edge list")
	}
	for i := 0; i < len(edges); i += 2 {
		b.count(edges[i], edges[i+1])
	}
	b.place()
	for i := 0; i < len(edges); i += 2 {
		b.fill(edges[i], edges[i+1])
	}
	return b.finish()
}

// emit is FromEdgeFunc's callback for both passes.
func (b *csr) emit(u, v NodeID) {
	if b.filling {
		b.fill(u, v)
	} else {
		b.count(u, v)
	}
}

// count checks the edge {u, v} and counts its two arcs. It stays within
// the inlining budget, so the flat loop pays no call per edge: one
// unsigned compare per endpoint, and the panic message built out of line.
func (b *csr) count(u, v NodeID) {
	off := b.off
	if n := len(off) - 1; uint(u) >= uint(n) || uint(v) >= uint(n) || u == v {
		panic(badEdge{u, v, n})
	}
	off[u+1]++
	off[v+1]++
}

// badEdge is count's panic value. It reads as AddEdge's panic message.
type badEdge struct {
	u, v NodeID
	n    int
}

func (e badEdge) Error() string {
	for _, x := range [2]NodeID{e.u, e.v} {
		if uint(x) >= uint(e.n) {
			return fmt.Sprintf("graph: node %d out of range [0, %d)", x, e.n)
		}
	}
	return "graph: self loop"
}

// place turns the arc counts into row starts and sizes the arena. The
// fill pass writes every slot, so a reused arena needs no clearing.
func (b *csr) place() {
	off := b.off
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	b.arena = resize(b.arena, off[len(off)-1])
	b.filling = true
}

// fill writes the edge {u, v}'s two arcs at their rows' cursors.
func (b *csr) fill(u, v NodeID) {
	if u >= v || u < b.prevU || u == b.prevU && v <= b.prevV {
		b.canonical = false
	}
	b.prevU, b.prevV = u, v
	b.arena[b.off[u]] = v
	b.off[u]++
	b.arena[b.off[v]] = u
	b.off[v]++
}

// finish cuts the filled arena into rows. Each row is capped at its
// length, so a later AddEdge reallocates it rather than overwriting the
// next row's arena slots.
func (b *csr) finish() *Graph {
	g := b.g
	arcs, start := 0, 0
	for v, end := range b.off[:len(g.adj)] {
		row := b.arena[start:end]
		start = end
		if !b.canonical {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		g.adj[v] = row[:len(row):len(row)]
		arcs += len(row)
	}
	g.edges = arcs / 2
	g.autoBitset(b.words)
	return g
}
