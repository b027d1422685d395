package geom

// NeighborsBrute is the O(N) reference implementation of Grid.Neighbors,
// used by tests and benchmarks to validate the grid.
func NeighborsBrute(points []Point, id int, radius float64, dst []int) []int {
	p := points[id]
	r2 := radius * radius
	for other, q := range points {
		if other == id {
			continue
		}
		if p.Dist2(q) <= r2 {
			dst = append(dst, other)
		}
	}
	return dst
}
