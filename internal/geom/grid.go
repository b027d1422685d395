package geom

// Grid is a uniform-cell spatial index over a fixed set of points. It
// answers fixed-radius neighbor queries in expected O(k) time for k results,
// which turns unit-disk graph construction from O(N^2) pairwise checks into
// O(N*k). Cells are sized to the query radius, so a radius query only needs
// to inspect the 3x3 block of cells around the query point.
//
// The index is immutable after construction; rebuilding each simulation
// interval is cheap (a single pass over the points) and far simpler than an
// incrementally-updated structure.
type Grid struct {
	bounds   Rect
	cell     float64 // cell side length
	nx, ny   int     // number of cells per axis
	points   []Point // indexed by point id
	cellIDs  [][]int // point ids per cell, row-major
	radius   float64
	radius2  float64
	diagonal bool // true when the whole field fits in one cell
}

// NewGrid builds an index over points for fixed-radius queries with the
// given radius. Points outside bounds are clamped into it for cell
// assignment only; their true coordinates are kept for distance tests, so
// query results remain exact. radius must be positive.
func NewGrid(points []Point, bounds Rect, radius float64) *Grid {
	if radius <= 0 {
		panic("geom: NewGrid radius must be positive")
	}
	g := &Grid{
		bounds:  bounds,
		points:  points,
		radius:  radius,
		radius2: radius * radius,
	}
	// Cell side is at least the query radius (so a radius query fits in the
	// 3x3 cell block around the query point) but never so small that the
	// cell array explodes: cap each axis at maxCellsPerAxis. Larger cells
	// remain correct — the query still distance-tests every candidate — they
	// only admit more candidates per cell.
	// There is also no benefit to more cells than points: cap each axis at
	// ~2*sqrt(len(points)) so the cell array is O(len(points)).
	maxCellsPerAxis := 1.0
	for maxCellsPerAxis*maxCellsPerAxis < 4*float64(len(points)) {
		maxCellsPerAxis *= 2
	}
	if maxCellsPerAxis > 4096 {
		maxCellsPerAxis = 4096
	}
	w, h := bounds.Width(), bounds.Height()
	g.cell = radius
	if min := w / maxCellsPerAxis; g.cell < min {
		g.cell = min
	}
	if min := h / maxCellsPerAxis; g.cell < min {
		g.cell = min
	}
	g.nx = int(w/g.cell) + 1
	g.ny = int(h/g.cell) + 1
	if g.nx < 1 {
		g.nx = 1
	}
	if g.ny < 1 {
		g.ny = 1
	}
	g.diagonal = g.nx == 1 && g.ny == 1
	g.cellIDs = make([][]int, g.nx*g.ny)
	for id, p := range points {
		c := g.cellOf(p)
		g.cellIDs[c] = append(g.cellIDs[c], id)
	}
	return g
}

func (g *Grid) cellOf(p Point) int {
	p = g.bounds.Clamp(p)
	cx := int((p.X - g.bounds.MinX) / g.cell)
	cy := int((p.Y - g.bounds.MinY) / g.cell)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cy*g.nx + cx
}

// Neighbors appends to dst the ids of all points within the query radius of
// point id (excluding id itself) and returns the extended slice. Distances
// are inclusive: a point at exactly radius distance is a neighbor, matching
// the paper's "within wireless transmission range" definition.
func (g *Grid) Neighbors(id int, dst []int) []int {
	p := g.points[id]
	visit := func(c int) {
		for _, other := range g.cellIDs[c] {
			if other == id {
				continue
			}
			if p.Dist2(g.points[other]) <= g.radius2 {
				dst = append(dst, other)
			}
		}
	}
	if g.diagonal {
		visit(0)
		return dst
	}
	pc := g.bounds.Clamp(p)
	cx := int((pc.X - g.bounds.MinX) / g.cell)
	cy := int((pc.Y - g.bounds.MinY) / g.cell)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	for dy := -1; dy <= 1; dy++ {
		y := cy + dy
		if y < 0 || y >= g.ny {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= g.nx {
				continue
			}
			visit(y*g.nx + x)
		}
	}
	return dst
}
