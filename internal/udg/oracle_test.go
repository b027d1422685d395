package udg

import (
	"pacds/internal/geom"
	"pacds/internal/graph"
)

// BuildBrute is the O(N^2) reference construction, used to validate Build
// and BuildParallel. It applies the same bitset policy as Build
// (graph.AutoBitset) so differential tests compare identically-configured
// graphs.
func BuildBrute(positions []geom.Point, radius float64) *graph.Graph {
	g := graph.New(len(positions))
	r2 := radius * radius
	for v := range positions {
		for u := v + 1; u < len(positions); u++ {
			if positions[v].Dist2(positions[u]) <= r2 {
				g.AddEdge(graph.NodeID(v), graph.NodeID(u))
			}
		}
	}
	g.AutoBitset()
	return g
}
