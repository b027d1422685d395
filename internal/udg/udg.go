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
	"slices"

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
// Build is BuildParallel at one worker.
func Build(positions []geom.Point, field geom.Rect, radius float64) *graph.Graph {
	return BuildParallel(positions, field, radius, 1)
}

// listEdges is the one pass behind every unit-disk builder. It queries
// the grid once for each host v in [lo, hi) of n and lists each
// neighbour u > v that keep admits as the pair v, u. keep, when not nil,
// sees the candidates in the grid's visiting order, which is the order
// BuildQuasi draws its coins in. The kept neighbours are then sorted, so
// the list is in graph.FromFlatEdges' canonical order and the build sorts
// no row.
func listEdges(grid *geom.Grid, n, lo, hi int, keep func(v, u int) bool) []graph.NodeID {
	// Room for one neighbour a host; when that fills, the list grows to
	// the length listLen projects from the hosts queried by then.
	list := make([]graph.NodeID, 0, 2*(hi-lo))
	buf := make([]int, 0, 64)
	arcs := 0 // neighbours of the hosts queried so far, kept or not
	for v := lo; v < hi; v++ {
		buf = grid.Neighbors(v, buf[:0])
		arcs += len(buf)
		kept := buf[:0]
		for _, u := range buf {
			if u > v && (keep == nil || keep(v, u)) {
				kept = append(kept, u)
			}
		}
		slices.Sort(kept)
		if len(list)+2*len(kept) > cap(list) {
			list = slices.Grow(list, max(2*len(kept), listLen(arcs, v-lo+1, n, lo, hi)-len(list)))
		}
		for _, u := range kept {
			list = append(list, graph.NodeID(v), graph.NodeID(u))
		}
	}
	return list
}

// listLen projects the length of listEdges' list for hosts [lo, hi) of n
// from arcs, the neighbour count of the range's first seen hosts, with
// 1/16 headroom. Host ids are placed at random, so host w lists on
// average the share (n-1-w)/(n-1) of its neighbours that lie above it,
// two entries each; over all n hosts that is the mean degree times n.
func listLen(arcs, seen, n, lo, hi int) int {
	mean := float64(arcs) / float64(seen)
	return int(mean * float64(hi-lo) * float64(2*n-1-lo-hi) / float64(n-1) * 17 / 16)
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
