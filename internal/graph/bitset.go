package graph

// Optional dense bitset adjacency view.
//
// The merge scans in sets.go are linear in the operand degrees, which is
// optimal for sparse neighborhoods but leaves word-level parallelism on the
// table at the densities the paper simulates (r=25 on a 100x100 field gives
// average degrees of 15-20 at N=100). With a bit-matrix view, the rule
// kernels become a handful of AND-NOT word operations:
//
//	N[v] ⊆ N[u]        ⇔  (bits(v) | 1<<v) &^ (bits(u) | 1<<u) == 0
//	N(v) ⊆ N(u) ∪ N(w) ⇔  bits(v) &^ (bits(u) | bits(w)) == 0
//
// The view is opt-in (EnableBitset) because it costs Θ(n²/64) memory; the
// unit-disk generators (see package udg) and FromEdgeFunc enable it
// through AutoBitset for every graph up to BitsetMaxNodes nodes, so the
// simulator's and cdsd's hot paths get the fast kernels without any
// call-site changes. Once enabled, the view is kept current incrementally
// by AddEdge/RemoveEdge and copied by Clone, so it is built once per
// graph; the backing storage is retained across EnableBitset calls so
// refreshing the view for a same-sized graph allocates nothing.
//
// Set operations dispatch to the bitset path only when the operand degrees
// exceed a words-per-row threshold; below it the merge scan touches less
// memory and wins.

// Bitset is a fixed-width row of bits over the node range [0, n). Bit i of
// word i/64 is set iff node i is in the set.
type Bitset []uint64

// Test reports whether bit i is set.
func (b Bitset) Test(i NodeID) bool {
	return b[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// set sets bit i.
func (b Bitset) set(i NodeID) { b[uint(i)>>6] |= 1 << (uint(i) & 63) }

// clear clears bit i.
func (b Bitset) clear(i NodeID) { b[uint(i)>>6] &^= 1 << (uint(i) & 63) }

// popcount is a branch-free 64-bit population count (Hacker's Delight,
// Fig. 5-2). Spelled out to keep the package dependency-free; math/bits
// compiles to the same POPCNT instruction when available, but the SWAR form
// is within a factor of two and this is not the kernels' bottleneck.
func popcount(x uint64) int {
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}

// bitsetAdj is the dense adjacency view: n open-neighborhood rows of
// `words` 64-bit words each, stored contiguously. Graph holds it by value;
// nil rows mean the graph has no view.
type bitsetAdj struct {
	words int
	rows  []uint64 // row v occupies rows[v*words : (v+1)*words]
}

func (b *bitsetAdj) row(v NodeID) Bitset {
	return Bitset(b.rows[int(v)*b.words : (int(v)+1)*b.words])
}

// worth reports whether the word-parallel path should handle an operation
// whose merge-scan cost is proportional to deg. Each word op replaces up to
// 64 element comparisons, but the bitset always touches `words` words per
// row regardless of degree, so sparse rows stay on the merge scan.
func (b *bitsetAdj) worth(deg int) bool { return deg >= b.words }

// BitsetMaxNodes bounds the graphs AutoBitset gives the dense view: it
// costs Θ(n²/64) memory, 2 MiB at the limit. Larger graphs stay on the
// allocation-free merge scans.
const BitsetMaxNodes = 4096

// AutoBitset applies the one dense-view policy every graph builder
// shares: graphs of at most BitsetMaxNodes nodes, the empty graph
// included, get the bitset view; larger graphs are left as they are.
// Builders call it on every path, so a graph takes the same kernel
// dispatch whichever builder produced it. A graph that already carries
// the view is left alone: AddEdge/RemoveEdge keep it current and Clone
// copies it, so there is nothing to rebuild.
func (g *Graph) AutoBitset() {
	if g.bits.rows == nil && len(g.adj) <= BitsetMaxNodes {
		g.EnableBitset()
	}
}

// EnableBitset builds (or refreshes) the dense adjacency view from the
// current edge set. The view is kept current by AddEdge/RemoveEdge, so
// calling this once after construction is enough; calling it again after
// bulk changes is also valid. Backing storage is reused when the node count
// allows, so refreshing the view on a same-sized graph does not allocate.
//
// EnableBitset mutates the graph and must not race with readers; enable the
// view before sharing the graph across goroutines.
func (g *Graph) EnableBitset() {
	n := len(g.adj)
	words := (n + 63) / 64
	need := n * words
	rows := g.bits.rows
	if rows != nil && cap(rows) >= need {
		rows = rows[:need]
		clear(rows)
	} else {
		rows = make([]uint64, need)
	}
	g.bits = bitsetAdj{words: words, rows: rows}
	for v, list := range g.adj {
		row := g.bits.row(NodeID(v))
		for _, u := range list {
			row.set(u)
		}
	}
}

// DisableBitset drops the dense view (and its storage).
func (g *Graph) DisableBitset() { g.bits = bitsetAdj{} }

// BitsetEnabled reports whether the dense adjacency view is active.
func (g *Graph) BitsetEnabled() bool { return g.bits.rows != nil }

// closedSubsetBits is ClosedSubset on the dense view. Callers have already
// established v != u and {v, u} ∈ E (or handled those cases).
func (g *Graph) closedSubsetBits(v, u NodeID) bool {
	b := &g.bits
	nv, nu := b.row(v), b.row(u)
	wv, mv := int(uint(v)>>6), uint64(1)<<(uint(v)&63)
	wu, mu := int(uint(u)>>6), uint64(1)<<(uint(u)&63)
	for i := 0; i < b.words; i++ {
		a, c := nv[i], nu[i]
		if i == wv {
			a |= mv // v ∈ N[v]
		}
		if i == wu {
			c |= mu // u ∈ N[u]
		}
		if a&^c != 0 {
			return false
		}
	}
	return true
}

// openSubsetOfUnionBits is OpenSubsetOfUnion on the dense view.
func (g *Graph) openSubsetOfUnionBits(v, u, w NodeID) bool {
	b := &g.bits
	nv, nu, nw := b.row(v), b.row(u), b.row(w)
	for i := 0; i < b.words; i++ {
		if nv[i]&^(nu[i]|nw[i]) != 0 {
			return false
		}
	}
	return true
}

// hasUnconnectedNeighborsBits is HasUnconnectedNeighbors on the dense view:
// v is marked iff some neighbor u leaves part of N(v) uncovered by N[u].
func (g *Graph) hasUnconnectedNeighborsBits(v NodeID) bool {
	b := &g.bits
	nv := b.row(v)
	for _, u := range g.adj[v] {
		nu := b.row(u)
		wu, mu := int(uint(u)>>6), uint64(1)<<(uint(u)&63)
		for i := 0; i < b.words; i++ {
			c := nu[i]
			if i == wu {
				c |= mu // u itself is not an unconnected partner of u
			}
			if nv[i]&^c != 0 {
				return true
			}
		}
	}
	return false
}
