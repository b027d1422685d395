package udg

import (
	"fmt"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/xrand"
)

// Quasi unit-disk graphs — a standard refinement of the paper's ideal
// radio model. Real radios have no sharp range cutoff: links inside an
// inner radius are reliable, links beyond an outer radius impossible, and
// links in the transition zone exist probabilistically. The marking
// process and rules are purely graph-based, so they apply unchanged; the
// quasi model exercises them on topologies the ideal disk cannot produce
// (notably, non-monotone neighborhoods where a far host is connected
// while a nearer one is not).
//
// Note that the quasi model remains symmetric (one coin flip per pair),
// preserving the paper's undirected-graph assumption.

// QuasiConfig describes a quasi-UDG instance.
type QuasiConfig struct {
	N     int
	Field geom.Rect
	// RMin is the reliable radius: d <= RMin always links.
	RMin float64
	// RMax is the maximum radius: d > RMax never links.
	RMax float64
	// PZone is the link probability for RMin < d <= RMax.
	PZone float64
}

// PaperQuasiConfig returns a quasi configuration bracketing the paper's
// radius 25: reliable to 20, possible to 30, transition probability 0.5.
func PaperQuasiConfig(n int) QuasiConfig {
	return QuasiConfig{N: n, Field: geom.Square(100), RMin: 20, RMax: 30, PZone: 0.5}
}

// Validate reports configuration errors.
func (c QuasiConfig) Validate() error {
	if c.N < 0 {
		return fmt.Errorf("udg: negative host count %d", c.N)
	}
	if c.RMin <= 0 || c.RMax < c.RMin {
		return fmt.Errorf("udg: need 0 < RMin <= RMax, got %v, %v", c.RMin, c.RMax)
	}
	if c.PZone < 0 || c.PZone > 1 {
		return fmt.Errorf("udg: PZone %v outside [0, 1]", c.PZone)
	}
	return nil
}

// BuildQuasi constructs a quasi-UDG over the positions: pairs within RMin
// always link, pairs within (RMin, RMax] link with probability PZone, and
// farther pairs never link. The grid index prunes candidates by RMax.
func BuildQuasi(positions []geom.Point, c QuasiConfig, rng *xrand.RNG) *graph.Graph {
	g := graph.New(len(positions))
	if len(positions) == 0 {
		g.AutoBitset()
		return g
	}
	grid := geom.NewGrid(positions, c.Field, c.RMax)
	rMin2 := c.RMin * c.RMin
	rMax2 := c.RMax * c.RMax
	buf := make([]int, 0, 64)
	for v := range positions {
		buf = grid.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u <= v {
				continue // one decision per unordered pair
			}
			d2 := positions[v].Dist2(positions[u])
			switch {
			case d2 <= rMin2:
				g.AddEdge(graph.NodeID(v), graph.NodeID(u))
			case d2 <= rMax2:
				if rng.Float64() < c.PZone {
					g.AddEdge(graph.NodeID(v), graph.NodeID(u))
				}
			}
		}
	}
	g.AutoBitset()
	return g
}

// RandomQuasi generates a quasi-UDG instance with uniform placement.
func RandomQuasi(c QuasiConfig, rng *xrand.RNG) (*Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	pos := RandomPositions(Config{N: c.N, Field: c.Field, Radius: c.RMax}, rng)
	g := BuildQuasi(pos, c, rng)
	return &Instance{
		Config:    Config{N: c.N, Field: c.Field, Radius: c.RMax},
		Positions: pos,
		Graph:     g,
	}, nil
}

// RandomQuasiConnected samples quasi instances until one is connected.
func RandomQuasiConnected(c QuasiConfig, rng *xrand.RNG, maxAttempts int) (*Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if maxAttempts <= 0 {
		maxAttempts = 1000
	}
	for i := 0; i < maxAttempts; i++ {
		inst, err := RandomQuasi(c, rng)
		if err != nil {
			return nil, err
		}
		if inst.Graph.IsConnected() {
			return inst, nil
		}
	}
	return nil, ErrNoConnectedInstance
}
