// Package udg constructs unit-disk graphs — the connectivity model the
// paper uses for ad hoc wireless networks. All hosts share one transmission
// radius r; hosts u and v are linked iff their Euclidean distance is at
// most r, which yields an undirected graph (paper Section 1).
//
// The paper's simulation places N hosts uniformly at random in a 100x100
// field with r = 25.
package udg

import (
	"errors"
	"fmt"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/xrand"
)

// Config describes a random unit-disk network instance.
type Config struct {
	N      int       // number of hosts
	Field  geom.Rect // deployment region
	Radius float64   // shared transmission radius
}

// PaperConfig returns the paper's simulation parameters for n hosts:
// 100x100 field, radius 25.
func PaperConfig(n int) Config {
	return Config{N: n, Field: geom.Square(100), Radius: 25}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 0 {
		return fmt.Errorf("udg: negative host count %d", c.N)
	}
	if c.Radius <= 0 {
		return fmt.Errorf("udg: non-positive radius %v", c.Radius)
	}
	if c.Field.Width() < 0 || c.Field.Height() < 0 {
		return errors.New("udg: inverted field rectangle")
	}
	return nil
}

// RandomPositions places c.N hosts uniformly at random in c.Field.
func RandomPositions(c Config, rng *xrand.RNG) []geom.Point {
	pts := make([]geom.Point, c.N)
	for i := range pts {
		pts[i] = geom.Point{
			X: c.Field.MinX + rng.Float64()*c.Field.Width(),
			Y: c.Field.MinY + rng.Float64()*c.Field.Height(),
		}
	}
	return pts
}

// Build constructs the unit-disk graph over the given positions with the
// given radius, using a uniform-grid index (O(N·k) for k average neighbors).
// Distance comparison is inclusive: d(u,v) <= radius links u and v.
// The graph gets the bitset adjacency view under graph.AutoBitset's
// policy, so the marking/pruning kernels downstream run word-parallel.
func Build(positions []geom.Point, field geom.Rect, radius float64) *graph.Graph {
	g := graph.New(len(positions))
	if len(positions) == 0 {
		g.AutoBitset()
		return g
	}
	grid := geom.NewGrid(positions, field, radius)
	buf := make([]int, 0, 64)
	for v := range positions {
		buf = grid.Neighbors(v, buf[:0])
		for _, u := range buf {
			if u > v {
				g.AddEdge(graph.NodeID(v), graph.NodeID(u))
			}
		}
	}
	g.AutoBitset()
	return g
}

// BuildBrute is the O(N^2) reference construction, used to validate Build
// and BuildParallel. It applies the same bitset policy as Build
// (graph.AutoBitset) so differential tests compare identically-configured
// graphs and downstream kernels take the same dispatch path regardless of
// which constructor produced the graph.
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

// Instance is a generated network: host positions plus the induced
// unit-disk graph.
type Instance struct {
	Config    Config
	Positions []geom.Point
	Graph     *graph.Graph
}

// Random generates one random instance (not necessarily connected).
func Random(c Config, rng *xrand.RNG) (*Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	pos := RandomPositions(c, rng)
	return &Instance{Config: c, Positions: pos, Graph: Build(pos, c.Field, c.Radius)}, nil
}

// ErrNoConnectedInstance is returned when RandomConnected exhausts its
// attempt budget without sampling a connected topology.
var ErrNoConnectedInstance = errors.New("udg: could not sample a connected instance within the attempt budget")

// RandomConnected samples random instances until one is connected, up to
// maxAttempts tries. The marking process assumes a connected graph, so the
// graph-size experiments (paper Figure 10) sample connected instances; at
// the paper's density (r=25 in a 100x100 field) most instances with N >= 10
// are connected.
func RandomConnected(c Config, rng *xrand.RNG, maxAttempts int) (*Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if maxAttempts <= 0 {
		maxAttempts = 1000
	}
	for i := 0; i < maxAttempts; i++ {
		inst, err := Random(c, rng)
		if err != nil {
			return nil, err
		}
		if inst.Graph.IsConnected() {
			return inst, nil
		}
	}
	return nil, ErrNoConnectedInstance
}

// Rebuild recomputes the instance's graph from its current positions,
// e.g. after a mobility step has moved hosts.
func (in *Instance) Rebuild() {
	in.Graph = Build(in.Positions, in.Config.Field, in.Config.Radius)
}
