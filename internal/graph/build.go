package graph

import "slices"

// Bulk constructors. AddEdge keeps the sorted-adjacency invariant one
// insertion at a time, which costs O(deg) per edge and one append-growth
// allocation chain per node — fine for incremental mutation, wasteful for
// the two bulk cases the system actually has: a server request carrying a
// complete edge list, and a parallel unit-disk build that computes whole
// neighbor rows at once. Both constructors below lay the adjacency out in
// a single flat backing array (two allocations total) and fix the row
// order once, so building a 100k-node graph is two passes over the edges
// instead of 100k growing slices.

// FromSortedAdjacency adopts pre-built adjacency rows without copying.
// Each row must be strictly ascending, self-loop free, and in range, and
// the rows must be symmetric (u ∈ adj[v] ⇔ v ∈ adj[u]); the cheap
// per-row invariants are verified (panic on violation), symmetry is the
// caller's contract. Rows may share a backing array, but then each row's
// capacity must equal its length so a later AddEdge reallocates instead
// of clobbering its neighbor row.
func FromSortedAdjacency(adj [][]NodeID) *Graph {
	n := NodeID(len(adj))
	arcs := 0
	for v, row := range adj {
		prev := NodeID(-1)
		for _, u := range row {
			if u < 0 || u >= n {
				panic("graph: FromSortedAdjacency neighbor out of range")
			}
			if u == NodeID(v) {
				panic("graph: FromSortedAdjacency self loop")
			}
			if u <= prev {
				panic("graph: FromSortedAdjacency row not strictly ascending")
			}
			prev = u
		}
		arcs += len(row)
	}
	if arcs%2 != 0 {
		panic("graph: FromSortedAdjacency asymmetric adjacency")
	}
	return &Graph{adj: adj, edges: arcs / 2}
}

// FromEdgeFunc builds a graph over n nodes from an edge stream, compactly:
// visit is called twice and must emit the same undirected edges both
// times (any order; duplicates allowed and deduplicated, matching
// AddEdge's idempotence). The first pass counts degrees, the second fills
// a flat adjacency arena, then each row is sorted and compacted in place.
// Endpoints must be valid, distinct nodes (panic otherwise, like AddEdge).
// The graph gets the bitset view under AutoBitset's policy.
func FromEdgeFunc(n int, visit func(emit func(u, v NodeID))) *Graph {
	g := New(n)
	// Row offsets and fill cursors share one allocation.
	idx := make([]int, 2*n+1)
	off, cursor := idx[:n+1], idx[n+1:]
	visit(func(u, v NodeID) {
		g.check(u)
		g.check(v)
		if u == v {
			panic("graph: self loop")
		}
		off[u+1]++
		off[v+1]++
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	flat := make([]NodeID, off[n])
	visit(func(u, v NodeID) {
		flat[off[u]+cursor[u]] = v
		cursor[u]++
		flat[off[v]+cursor[v]] = u
		cursor[v]++
	})
	arcs := 0
	for v := 0; v < n; v++ {
		row := flat[off[v]:off[v+1]]
		slices.Sort(row)
		// Compact duplicate arcs (the same edge emitted twice).
		k := 0
		for i, u := range row {
			if i == 0 || u != row[i-1] {
				row[k] = u
				k++
			}
		}
		// Cap the row at its compacted length so a later AddEdge append
		// reallocates rather than overwriting the next row's arena slot.
		g.adj[v] = row[:k:k]
		arcs += k
	}
	g.edges = arcs / 2
	g.AutoBitset()
	return g
}
