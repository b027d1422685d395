package cds

import (
	"math/bits"

	"pacds/internal/graph"
)

// Neighborhood masks.
//
// A host's marker and its Rule 1/2 premises read only the adjacency
// inside N[v] (paper Section 2.2). For a host v with 1–64 neighbors that
// adjacency fits in one 64-bit word per neighbor: rows[v][j] holds, as
// bit positions in N(v), the neighbors of v adjacent to N(v)[j]. With
// full the low |N(v)| bits, every slot test is one word per candidate:
//
//	m(v)                          ⇔  some rows[v][j] | 1<<j ≠ full
//	N[v] ⊆ N[N(v)[j]]             ⇔  rows[v][j] | 1<<j = full      (Rule 1)
//	N(v) ⊆ N(N(v)[a]) ∪ N(N(v)[b]) ⇔  rows[v][a] | rows[v][b] = full (Rule 2)
//
// The matrix is symmetric (bit i of row j is bit j of row i), so a Rule 2
// partner b of a must be one of the bits of row a.
//
// An IncrementalMarker owns the masks of its graph and keeps them current
// across link toggles. Toggling {a, b} changes the rows of a and b, whose
// neighbor lists changed, and of their common neighbors c, where it only
// flips a's bit in b's row and b's bit in a's row: c's neighbor list, and
// so every bit position in c's rows, is unchanged. The marker therefore
// patches common neighbors in place and rebuilds the endpoints' rows at
// its next read (a host that is also an endpoint in the same batch is
// rebuilt, not patched). Hosts with no neighbor or more than 64 keep no
// rows; their slots run the graph's kernels, and the first rebuild that
// meets a host above 64 neighbors gives the graph its dense view
// (graph.AutoBitset), which the graph then keeps current.
type masks struct {
	g *graph.Graph
	// rows[v] has one word per neighbor of v when v has 1 to
	// maxMaskDegree neighbors, and is empty otherwise.
	rows [][]uint64
	// bit is build's scratch: bit[x] is 1<<i for the i-th host of the
	// neighbor list being built, and 0 for every other host.
	bit []uint64
}

// maxMaskDegree is the largest neighbor count whose rows fit in one word.
const maxMaskDegree = 64

// fullMask returns the low d bits set, for 1 <= d <= 64.
func fullMask(d int) uint64 { return ^uint64(0) >> (64 - uint(d)) }

// maskHeadroom is the spare capacity of a host's rows, so that a host
// gaining a few links rebuilds in place. It matches graph.Clone's.
func maskHeadroom(d int) int { return d/4 + 2 }

// init builds every host's rows, in one arena.
func (m *masks) init(g *graph.Graph) {
	n := g.NumNodes()
	m.g = g
	m.rows = make([][]uint64, n)
	m.bit = make([]uint64, n)
	size := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(graph.NodeID(v)); d > 0 && d <= maxMaskDegree {
			size += d + maskHeadroom(d)
		}
	}
	arena := make([]uint64, size)
	for v := 0; v < n; v++ {
		if d := g.Degree(graph.NodeID(v)); d > 0 && d <= maxMaskDegree {
			end := d + maskHeadroom(d)
			m.rows[v] = arena[:0:end]
			arena = arena[end:]
		}
		m.build(graph.NodeID(v))
	}
}

// build recomputes v's rows from the graph.
func (m *masks) build(v graph.NodeID) {
	nb := m.g.Neighbors(v)
	d := len(nb)
	if d == 0 || d > maxMaskDegree {
		m.rows[v] = m.rows[v][:0]
		if d > maxMaskDegree {
			m.g.AutoBitset()
		}
		return
	}
	row := m.rows[v]
	if cap(row) < d {
		row = make([]uint64, d, d+maskHeadroom(d))
	}
	row = row[:d]
	bit := m.bit
	for i, x := range nb {
		bit[x] = 1 << uint(i)
	}
	for j, u := range nb {
		var w uint64
		for _, x := range m.g.Neighbors(u) {
			w |= bit[x]
		}
		row[j] = w
	}
	for _, x := range nb {
		bit[x] = 0
	}
	m.rows[v] = row
}

// patch records the toggle of link {a, b} in the rows of c, a common
// neighbor of a and b whose neighbor list has not changed since its rows
// were built.
func (m *masks) patch(c, a, b graph.NodeID, up bool) {
	row := m.rows[c]
	if len(row) == 0 {
		return
	}
	nb := m.g.Neighbors(c)
	i, j := indexOf(nb, a), indexOf(nb, b)
	if up {
		row[i] |= 1 << uint(j)
		row[j] |= 1 << uint(i)
	} else {
		row[i] &^= 1 << uint(j)
		row[j] &^= 1 << uint(i)
	}
}

// mark computes m(v): whether v has two neighbors that are not adjacent.
func (m *masks) mark(v graph.NodeID) bool {
	row := m.rows[v]
	if len(row) == 0 {
		return m.g.HasUnconnectedNeighbors(v)
	}
	full := fullMask(len(row))
	for j, w := range row {
		if w|1<<uint(j) != full {
			return true
		}
	}
	return false
}

// of returns v's rows, or nil when v keeps none or no masks are bound.
func (m *masks) of(v graph.NodeID) []uint64 {
	if m == nil || len(m.rows[v]) == 0 {
		return nil
	}
	return m.rows[v]
}

// rule1Masks is rule1 from v's rows.
func (r *Rules) rule1Masks(before, after []bool, v graph.NodeID, rows []uint64) bool {
	nb := r.g.Neighbors(v)
	full := fullMask(len(rows))
	for j, u := range nb {
		if rows[j]|1<<uint(j) == full && statusAt(before, after, v, u) && r.less(v, u) {
			return true
		}
	}
	return false
}

// rule2IDMasks is rule2ID from v's rows: a pair of gateway neighbors
// above v whose rows cover N(v).
func (r *Rules) rule2IDMasks(before []bool, v graph.NodeID, rows []uint64) bool {
	var gw uint64
	for j, u := range r.g.Neighbors(v) {
		if u > v && before[u] {
			gw |= 1 << uint(j)
		}
	}
	return coveringPair(rows, gw, func(int, int) bool { return true })
}

// rule2PriorityMasks is rule2Priority from v's rows.
func (r *Rules) rule2PriorityMasks(before, after []bool, v graph.NodeID, rows []uint64) bool {
	nb := r.g.Neighbors(v)
	var gw uint64
	for j, u := range nb {
		if statusAt(before, after, v, u) {
			gw |= 1 << uint(j)
		}
	}
	return coveringPair(rows, gw, func(a, b int) bool { return r.rule2Covered(v, nb[a], nb[b]) })
}

// coveringPair reports whether some pair of positions a < b in cand has
// rows[a] | rows[b] = full and passes ok. The word rows[b] must hold
// every bit rows[a] lacks, bit a included, so b is one of rows[a]'s bits.
func coveringPair(rows []uint64, cand uint64, ok func(a, b int) bool) bool {
	full := fullMask(len(rows))
	for cand != 0 {
		a := bits.TrailingZeros64(cand)
		cand &= cand - 1 // the candidates above a
		need := full &^ rows[a]
		for c := cand & rows[a]; c != 0; c &= c - 1 {
			b := bits.TrailingZeros64(c)
			if rows[b]&need == need && ok(a, b) {
				return true
			}
		}
	}
	return false
}

// openSubsetOfUnion reports whether N(x) ⊆ N(y) ∪ N(z) for two neighbors
// y and z of x, from x's rows when it keeps them.
func (r *Rules) openSubsetOfUnion(x, y, z graph.NodeID) bool {
	rows := r.m.of(x)
	if rows == nil {
		return r.g.OpenSubsetOfUnion(x, y, z)
	}
	nb := r.g.Neighbors(x)
	return rows[indexOf(nb, y)]|rows[indexOf(nb, z)] == fullMask(len(rows))
}

// indexOf returns the position of x in the ascending list nb, which
// holds it.
func indexOf(nb []graph.NodeID, x graph.NodeID) int {
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nb[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
