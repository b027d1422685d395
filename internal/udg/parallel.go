package udg

import (
	"slices"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/par"
)

// BuildParallel is Build across a worker pool: workers <= 0 selects
// GOMAXPROCS. A host's grid query reads only the immutable grid and
// positions, so workers claim par.Block-sized blocks of hosts and each
// block lists its own edges (listEdges). Joined in block order, the
// lists are the list one worker makes, so the graph is the same at every
// worker count; the differential tests in parallel_test.go pin that,
// along with Build ≡ BuildBrute. Like Build, the graph gets the dense
// bitset adjacency view under graph.AutoBitset's policy.
func BuildParallel(positions []geom.Point, field geom.Rect, radius float64, workers int) *graph.Graph {
	n := len(positions)
	if n == 0 {
		return graph.FromFlatEdges(0, nil)
	}
	grid := geom.NewGrid(positions, field, radius)
	if workers = par.Workers(workers); workers == 1 {
		return graph.FromFlatEdges(n, listEdges(grid, n, 0, n, nil))
	}
	lists := make([][]graph.NodeID, (n+par.Block-1)/par.Block)
	par.For(n, workers, func(lo, hi int) {
		lists[lo/par.Block] = listEdges(grid, n, lo, hi, nil)
	})
	return graph.FromFlatEdges(n, slices.Concat(lists...))
}
