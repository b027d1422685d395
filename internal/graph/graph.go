// Package graph implements the undirected simple graph model used to
// represent ad hoc wireless networks: G = (V, E) where V is the set of
// mobile hosts and an edge {u, v} means u and v are within mutual wireless
// transmission range.
//
// The representation is an adjacency list with sorted neighbor slices.
// Sorted adjacency makes the neighborhood-subset tests at the heart of the
// Wu-Li pruning rules (N[v] ⊆ N[u], N(v) ⊆ N(u) ∪ N(w)) linear-time merge
// scans with no allocation, which dominates the cost profile of the whole
// simulator.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a vertex. Vertices of a graph with n nodes are the
// dense range [0, n).
type NodeID = int32

// Graph is an undirected simple graph over nodes [0, n). The zero value is
// an empty graph with no nodes; use New to create a graph with nodes.
//
// Adjacency slices are sorted ascending and contain no duplicates or self
// loops. Mutating methods preserve these invariants.
type Graph struct {
	adj   [][]NodeID
	edges int
	// bits is the optional dense adjacency view (see bitset.go). When its
	// rows are non-nil it mirrors adj exactly: mutating methods keep it
	// current.
	bits bitsetAdj
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]NodeID, n)}
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// check panics if v is out of range. It stays within the inlining
// budget, so the kernels pay one compare per node id, not a call: the
// unsigned compare also rejects negative ids, and the panic message is
// built out of line.
func (g *Graph) check(v NodeID) {
	if uint(v) >= uint(len(g.adj)) {
		outOfRange(v, len(g.adj))
	}
}

// outOfRange panics with check's message.
//
//go:noinline
func outOfRange(v NodeID, n int) {
	panic(fmt.Sprintf("graph: node %d out of range [0, %d)", v, n))
}

// AddEdge inserts the undirected edge {u, v}. Self loops are rejected.
// Adding an existing edge is a no-op. Both endpoints must be valid nodes.
func (g *Graph) AddEdge(u, v NodeID) {
	g.check(u)
	g.check(v)
	if u == v {
		panic("graph: self loop")
	}
	if g.insertArc(u, v) {
		g.insertArc(v, u)
		g.edges++
		if g.bits.rows != nil {
			g.bits.row(u).set(v)
			g.bits.row(v).set(u)
		}
	}
}

// insertArc inserts v into u's sorted adjacency list; reports whether the
// arc was newly added.
func (g *Graph) insertArc(u, v NodeID) bool {
	list := g.adj[u]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i < len(list) && list[i] == v {
		return false
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	g.adj[u] = list
	return true
}

// RemoveEdge deletes the undirected edge {u, v} if present; reports whether
// an edge was removed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	if !g.removeArc(u, v) {
		return false
	}
	g.removeArc(v, u)
	g.edges--
	if g.bits.rows != nil {
		g.bits.row(u).clear(v)
		g.bits.row(v).clear(u)
	}
	return true
}

func (g *Graph) removeArc(u, v NodeID) bool {
	list := g.adj[u]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	if i >= len(list) || list[i] != v {
		return false
	}
	g.adj[u] = append(list[:i], list[i+1:]...)
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if g.bits.rows != nil {
		return g.bits.row(u).Test(v)
	}
	list := g.adj[u]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	return i < len(list) && list[i] == v
}

// Neighbors returns the open neighbor set N(v) as a sorted slice. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	g.check(v)
	return g.adj[v]
}

// Degree returns |N(v)|, the node degree nd(v) used by Rules 1a/2a.
func (g *Graph) Degree(v NodeID) int {
	g.check(v)
	return len(g.adj[v])
}

// Clone returns a deep copy of g, including the bitset view if enabled.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]NodeID, len(g.adj)), edges: g.edges}
	for v, list := range g.adj {
		c.adj[v] = append([]NodeID(nil), list...)
	}
	c.bits = bitsetAdj{words: g.bits.words, rows: slices.Clone(g.bits.rows)}
	return c
}

// Edges calls fn for every undirected edge exactly once, with u < v.
func (g *Graph) Edges(fn func(u, v NodeID)) {
	for u, list := range g.adj {
		for _, v := range list {
			if NodeID(u) < v {
				fn(NodeID(u), v)
			}
		}
	}
}

// IsComplete reports whether every pair of distinct nodes is adjacent.
// The marking process only yields a dominating set on graphs that are
// connected but not complete (Property 1); callers use this to detect the
// degenerate case.
func (g *Graph) IsComplete() bool {
	n := len(g.adj)
	return g.edges == n*(n-1)/2
}

// MaxDegree returns the largest node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, list := range g.adj {
		if len(list) > max {
			max = len(list)
		}
	}
	return max
}

// AverageDegree returns the mean node degree, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.adj))
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return g
}

// Path returns the path graph P_n (0-1-2-...-n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(NodeID(v-1), NodeID(v))
	}
	return g
}

// Cycle returns the cycle graph C_n. n must be at least 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	g := Path(n)
	g.AddEdge(NodeID(n-1), 0)
	return g
}

// Star returns the star graph with node 0 as the hub and n-1 leaves.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, NodeID(v))
	}
	return g
}

// FromEdges builds a graph with n nodes and the given edge pairs.
func FromEdges(n int, edges [][2]NodeID) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}
