package graph

// Neighborhood-set algebra over sorted adjacency lists.
//
// The Wu-Li rules are phrased in terms of open neighbor sets N(v) and
// closed neighbor sets N[v] = N(v) ∪ {v}. All operations below run as
// linear merge scans over the sorted adjacency slices, with no allocation,
// because they are evaluated O(degree^2) times per node per update interval.
// When the graph's dense bitset view is enabled (see bitset.go) and the
// operand degrees exceed the words-per-row threshold, the subset tests
// dispatch to word-parallel AND-NOT kernels instead; both paths compute the
// same predicate (property-tested in bitset_test.go).

// ClosedContains reports whether x ∈ N[v], i.e. x == v or {v, x} ∈ E.
func (g *Graph) ClosedContains(v, x NodeID) bool {
	return v == x || g.HasEdge(v, x)
}

// ClosedSubset reports whether N[v] ⊆ N[u].
//
// Equivalent formulation used here: every x ∈ N(v) with x ≠ u must be in
// N(u), and v itself must be in N[u] (i.e. v == u or v adjacent to u).
// Rule 1 callers always have v ≠ u and v adjacent to u, but the method is
// correct for arbitrary v, u.
func (g *Graph) ClosedSubset(v, u NodeID) bool {
	g.check(v)
	g.check(u)
	if v == u {
		return true
	}
	// v ∈ N[v]; require v ∈ N[u] ⇔ v adjacent to u.
	if !g.HasEdge(v, u) {
		return false
	}
	nv, nu := g.adj[v], g.adj[u]
	if g.bits.rows != nil && g.bits.worth(len(nv)+len(nu)) {
		return g.closedSubsetBits(v, u)
	}
	// u ∈ N[v] holds (v adjacent u) and u ∈ N[u] trivially; check remaining.
	i, j := 0, 0
	for i < len(nv) {
		x := nv[i]
		if x == u {
			i++ // u ∈ N[u] automatically
			continue
		}
		// advance j until nu[j] >= x
		for j < len(nu) && nu[j] < x {
			j++
		}
		if j < len(nu) && nu[j] == x {
			i++
			continue
		}
		if x == v {
			// cannot happen: no self loops
			i++
			continue
		}
		return false
	}
	return true
}

// OpenSubsetOfUnion reports whether N(v) ⊆ N(u) ∪ N(w).
//
// Membership of v itself in the union is irrelevant here: the rule
// definitions compare open sets, and v ∉ N(v). Nodes u and w appearing in
// N(v) are handled naturally because u ∈ N(w) and w ∈ N(u) whenever the
// condition can hold; no special-casing is required for correctness since
// we test true set membership.
func (g *Graph) OpenSubsetOfUnion(v, u, w NodeID) bool {
	g.check(v)
	g.check(u)
	g.check(w)
	nv, nu, nw := g.adj[v], g.adj[u], g.adj[w]
	if g.bits.rows != nil && g.bits.worth(len(nv)+len(nu)+len(nw)) {
		return g.openSubsetOfUnionBits(v, u, w)
	}
	j, k := 0, 0
	for _, x := range nv {
		for j < len(nu) && nu[j] < x {
			j++
		}
		if j < len(nu) && nu[j] == x {
			continue
		}
		for k < len(nw) && nw[k] < x {
			k++
		}
		if k < len(nw) && nw[k] == x {
			continue
		}
		return false
	}
	return true
}

// CommonNeighbor reports whether u and w share at least one common
// neighbor, and returns one if so.
func (g *Graph) CommonNeighbor(u, w NodeID) (NodeID, bool) {
	g.check(u)
	g.check(w)
	nu, nw := g.adj[u], g.adj[w]
	i, j := 0, 0
	for i < len(nu) && j < len(nw) {
		switch {
		case nu[i] < nw[j]:
			i++
		case nu[i] > nw[j]:
			j++
		default:
			return nu[i], true
		}
	}
	return 0, false
}

// ForEachCommonNeighbor calls fn for every common neighbor of u and w, in
// ascending node order. This is the affected-set enumeration of the
// maintenance protocol (the hosts whose marker a link toggle can flip are
// exactly the endpoints plus their common neighbors), so it runs on the
// word-parallel bitset view when enabled and the rows are dense enough,
// falling back to the sorted merge scan otherwise.
func (g *Graph) ForEachCommonNeighbor(u, w NodeID, fn func(NodeID)) {
	g.check(u)
	g.check(w)
	nu, nw := g.adj[u], g.adj[w]
	if g.bits.rows != nil && g.bits.worth(len(nu)+len(nw)) {
		bu, bw := g.bits.row(u), g.bits.row(w)
		for i := range bu {
			x := bu[i] & bw[i]
			for x != 0 {
				low := x & -x
				fn(NodeID(i<<6 + popcount(low-1)))
				x ^= low
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(nu) && j < len(nw) {
		switch {
		case nu[i] < nw[j]:
			i++
		case nu[i] > nw[j]:
			j++
		default:
			fn(nu[i])
			i++
			j++
		}
	}
}

// HasUnconnectedNeighbors reports whether v has two neighbors that are not
// adjacent to each other — the marking-process condition (step 3): m(v) = T
// iff ∃ u, w ∈ N(v) with {u, w} ∉ E.
//
// The scan checks, for each neighbor u, whether all later neighbors of v
// are adjacent to u; it exits early on the first witness. Worst case is
// O(deg(v) * deg(v)) HasEdge probes, each a binary search.
func (g *Graph) HasUnconnectedNeighbors(v NodeID) bool {
	g.check(v)
	nv := g.adj[v]
	if g.bits.rows != nil && g.bits.worth(len(nv)) {
		return g.hasUnconnectedNeighborsBits(v)
	}
	for i := 0; i < len(nv); i++ {
		for j := i + 1; j < len(nv); j++ {
			if !g.HasEdge(nv[i], nv[j]) {
				return true
			}
		}
	}
	return false
}
