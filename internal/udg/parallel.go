package udg

import (
	"slices"
	"sync"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/par"
)

// Parallel unit-disk construction. Build's grid pass is inherently
// parallel — every host's neighbor row depends only on the immutable grid
// and positions — but AddEdge serializes it through shared adjacency
// mutation. BuildParallel keeps the grid index and goes wide instead:
// workers claim disjoint node ranges and run grid queries into private
// buffers, a degree-count pass sizes one flat adjacency arena, and a fill
// pass writes each host's sorted row into its owned arena slot. The merge
// is deterministic by construction (rows are positional and sorted), so
// the result is graph.Equal to Build at every worker count — the
// differential tests in parallel_test.go pin that, along with Build ≡
// BuildBrute.

// buildParallelCutoff is the instance size below which BuildParallel
// simply calls Build: under ~2 blocks of nodes the pool setup costs more
// than the edges.
const buildParallelCutoff = 2 * par.Block

// BuildParallel is Build across a worker pool. workers <= 0 selects
// GOMAXPROCS; 1 (or a small instance) falls back to the sequential Build.
// Like Build, the graph gets the dense bitset adjacency view under
// graph.AutoBitset's policy.
func BuildParallel(positions []geom.Point, field geom.Rect, radius float64, workers int) *graph.Graph {
	n := len(positions)
	if workers = par.Workers(workers); workers <= 1 || n < buildParallelCutoff {
		return Build(positions, field, radius)
	}
	grid := geom.NewGrid(positions, field, radius)
	// Private per-goroutine query buffers: a worker drains many blocks, so
	// the pool hands each one a reusable buffer instead of allocating per
	// block.
	bufs := sync.Pool{New: func() any { s := make([]int, 0, 128); return &s }}

	// Pass 1: count each host's degree. Every worker writes only deg[v]
	// for v in its claimed ranges.
	deg := make([]int, n)
	par.For(n, workers, func(lo, hi int) {
		bp := bufs.Get().(*[]int)
		buf := *bp
		for v := lo; v < hi; v++ {
			buf = grid.Neighbors(v, buf[:0])
			deg[v] = len(buf)
		}
		*bp = buf
		bufs.Put(bp)
	})

	// Arena layout: off[v] is row v's start in the flat backing array.
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	arena := make([]graph.NodeID, off[n])
	adj := make([][]graph.NodeID, n)

	// Pass 2: re-run each query and fill the owned arena slot, sorted.
	// The grid visits cells in a fixed order, so the second query returns
	// the same multiset as the first; sorting fixes the row order to the
	// ascending invariant Build produces via AddEdge.
	par.For(n, workers, func(lo, hi int) {
		bp := bufs.Get().(*[]int)
		buf := *bp
		for v := lo; v < hi; v++ {
			buf = grid.Neighbors(v, buf[:0])
			row := arena[off[v]:off[v+1]]
			for i, u := range buf {
				row[i] = graph.NodeID(u)
			}
			slices.Sort(row)
			// Full-capacity cap is safe here: rows are never appended to
			// by this package, and FromSortedAdjacency documents the
			// aliasing contract.
			adj[v] = row[:len(row):len(row)]
		}
		*bp = buf
		bufs.Put(bp)
	})

	g := graph.FromSortedAdjacency(adj)
	g.AutoBitset()
	return g
}
