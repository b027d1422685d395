package cds

import (
	"fmt"
	"slices"
	"testing"

	"pacds/internal/graph"
	"pacds/internal/xrand"
)

// wantRows is the mask oracle: bit i of row j is set iff v's i-th and
// j-th neighbors are adjacent, and hosts with no neighbor or more than 64
// keep no rows.
func wantRows(g *graph.Graph, v graph.NodeID) []uint64 {
	nb := g.Neighbors(v)
	if len(nb) == 0 || len(nb) > maxMaskDegree {
		return nil
	}
	rows := make([]uint64, len(nb))
	for j, u := range nb {
		for i, x := range nb {
			if g.HasEdge(u, x) {
				rows[j] |= 1 << uint(i)
			}
		}
	}
	return rows
}

// checkMarker reads a marker and compares it with fresh computations on
// its graph: every host's masks with wantRows, the markers with Mark,
// and, for every policy, a Resweep of every slot through the marker's
// rules with the whole-graph ApplyRule1Only and ApplyRules.
func checkMarker(t *testing.T, step string, im *IncrementalMarker, energy []float64) {
	t.Helper()
	marked := im.Marked()
	g := im.g
	n := g.NumNodes()
	for v := graph.NodeID(0); int(v) < n; v++ {
		got, want := im.masks.rows[v], wantRows(g, v)
		if len(got) != len(want) || !slices.Equal(got, want) {
			t.Fatalf("%s: host %d (degree %d) masks %x, want %x", step, v, g.Degree(v), got, want)
		}
	}
	if want := Mark(g); !slices.Equal(marked, want) {
		t.Fatalf("%s: markers differ from Mark", step)
	}
	var f1, f2, flipped Worklist
	f1.Init(n)
	f2.Init(n)
	flipped.Init(n)
	for _, p := range Policies {
		r, err := im.Bind(p, energy)
		if err != nil {
			t.Fatal(err)
		}
		f1.Reset()
		for v := 0; v < n; v++ {
			f1.Add(graph.NodeID(v))
		}
		gw1, gw2 := slices.Clone(marked), slices.Clone(marked)
		r.Resweep(marked, gw1, gw2, &f1, &f2, &flipped)
		want1, err := ApplyRule1Only(g, p, marked, energy)
		if err != nil {
			t.Fatal(err)
		}
		want2, err := ApplyRules(g, p, marked, energy)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gw1, want1) || !slices.Equal(gw2, want2) {
			t.Fatalf("%s: %v: the marker's rules differ from the whole-graph pass", step, p)
		}
	}
}

// TestMasksMatchFreshBuild runs seeded batches of link toggles through an
// IncrementalMarker and, after every read, checks its masks, markers and
// rules against fresh computations (checkMarker). The graphs hold hosts
// of degree 0, 1, 64 and 65: a hub that crosses 64 neighbors both ways,
// an isolated host and a leaf, and a 65-clique whose hosts sit at 64 and
// move around it. Each batch holds several toggles, among them a host
// that is an endpoint of one toggle and a common neighbor of another,
// patched before or after its own toggle.
func TestMasksMatchFreshBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func(rng *xrand.RNG) *graph.Graph
	}{
		{"hub", func(rng *xrand.RNG) *graph.Graph {
			// Host 0 is a hub at 64 neighbors, host 1 its leaf, host
			// 89 isolated; hosts 2-88 are linked at random, and the
			// batches toggle links among them, between the hub and
			// hosts 65-88, and between the hub and its leaf.
			g := graph.New(90)
			for v := graph.NodeID(1); v <= 64; v++ {
				g.AddEdge(0, v)
			}
			for u := graph.NodeID(2); u < 89; u++ {
				for v := u + 1; v < 89; v++ {
					if rng.Bool(0.12) {
						g.AddEdge(u, v)
					}
				}
			}
			return g
		}},
		{"clique", func(*xrand.RNG) *graph.Graph {
			// K65, whose hosts have 64 neighbors and no marker, plus
			// host 65 hanging off host 0, which has 65.
			g := graph.Complete(65)
			g2 := graph.New(66)
			g.Edges(func(u, v graph.NodeID) { g2.AddEdge(u, v) })
			g2.AddEdge(0, 65)
			return g2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(41)
			g := tc.g(rng)
			n := g.NumNodes()
			energy := make([]float64, n)
			for v := range energy {
				energy[v] = float64(rng.IntRange(1, 5))
			}
			im := NewIncrementalMarker(g)
			checkMarker(t, "initial", im, energy)
			toggle := func(a, b graph.NodeID) {
				if a == b {
					return
				}
				if g.HasEdge(a, b) {
					im.RemoveEdge(a, b)
				} else {
					im.AddEdge(a, b)
				}
			}
			// seen tallies the degrees the history must reach; cross
			// counts host 0's moves across 64 neighbors, up and down.
			seen := map[int]bool{}
			var cross [2]int
			hubUp := true
			for step := 0; step < 120; step++ {
				before := g.Degree(0)
				// An endpoint that is also a common neighbor: c is
				// adjacent to a and b, and {a, b} and {c, x} toggle in
				// one batch, in either order.
				host := func() graph.NodeID { return graph.NodeID(rng.IntRange(2, 88)) }
				if tc.name == "clique" {
					host = func() graph.NodeID { return graph.NodeID(rng.Intn(n)) }
				}
				c := host()
				if nb := g.Neighbors(c); len(nb) >= 2 {
					a, b := nb[rng.Intn(len(nb))], nb[rng.Intn(len(nb))]
					x := host()
					if step%2 == 0 {
						toggle(a, b)
						toggle(c, x)
					} else {
						toggle(c, x)
						toggle(a, b)
					}
				}
				for k := rng.IntRange(1, 6); k > 0; k-- {
					toggle(host(), host())
				}
				// The hub climbs above 64 neighbors and falls back.
				if tc.name == "hub" && step%3 == 0 {
					x := graph.NodeID(rng.IntRange(65, 88))
					if g.Degree(0) <= 64 {
						hubUp = true
					} else if g.Degree(0) >= 67 {
						hubUp = false
					}
					if hubUp != g.HasEdge(0, x) {
						toggle(0, x)
					}
				}
				if tc.name == "hub" && step%4 == 0 {
					toggle(0, 1)
				}
				checkMarker(t, fmt.Sprintf("step %d", step), im, energy)
				for v := graph.NodeID(0); int(v) < n; v++ {
					seen[g.Degree(v)] = true
				}
				if d := g.Degree(0); before <= 64 && d > 64 {
					cross[0]++
				} else if before > 64 && d <= 64 {
					cross[1]++
				}
			}
			if tc.name == "hub" && !(seen[0] && seen[1] && seen[64] && seen[65] && cross[0] > 0 && cross[1] > 0) {
				t.Fatalf("history misses a degree it is meant to cover: seen %v, host 0 crossed 64 %v times", seen, cross)
			}
			if tc.name == "clique" && !(seen[64] && seen[65]) {
				t.Fatalf("history misses a degree it is meant to cover: seen %v", seen)
			}
		})
	}
}
