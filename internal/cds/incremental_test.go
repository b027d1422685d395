package cds

import (
	"testing"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

func TestIncrementalMatchesFullAfterRandomEdits(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(40)
		g := graph.New(n)
		// Random initial edges.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					g.AddEdge(graph.NodeID(u), graph.NodeID(v))
				}
			}
		}
		im := NewIncrementalMarker(g)
		// Interleave edits and checks.
		for step := 0; step < 60; step++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				im.RemoveEdge(u, v)
			} else {
				im.AddEdge(u, v)
			}
			if step%7 == 0 {
				got := im.Marked()
				want := Mark(g)
				for x := range want {
					if got[x] != want[x] {
						t.Fatalf("trial %d step %d: marker mismatch at node %d", trial, step, x)
					}
				}
			}
		}
		// Final check.
		got := im.Marked()
		want := Mark(g)
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("trial %d: final marker mismatch at node %d", trial, x)
			}
		}
	}
}

func TestIncrementalLocalityFootprint(t *testing.T) {
	// Moving one host a small distance must dirty only a neighborhood-
	// sized set, not the whole network.
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(3), 2000)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	im := NewIncrementalMarker(g)
	im.Marked() // settle

	// Simulate host 0 moving: recompute its unit-disk edges after a small
	// displacement.
	moved := graph.NodeID(0)
	var newPos geom.Point = inst.Positions[moved].Add(3, 2)
	r2 := inst.Config.Radius * inst.Config.Radius
	for v := 0; v < g.NumNodes(); v++ {
		if graph.NodeID(v) == moved {
			continue
		}
		inRange := newPos.Dist2(inst.Positions[v]) <= r2
		has := g.HasEdge(moved, graph.NodeID(v))
		switch {
		case inRange && !has:
			im.AddEdge(moved, graph.NodeID(v))
		case !inRange && has:
			im.RemoveEdge(moved, graph.NodeID(v))
		}
	}
	inst.Positions[moved] = newPos

	dirty := im.PendingDirty()
	if dirty > 0 && dirty >= g.NumNodes()/2 {
		t.Fatalf("one small move dirtied %d of %d nodes", dirty, g.NumNodes())
	}
	// And the result must still be exact.
	got := im.Marked()
	want := Mark(g)
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("marker mismatch at node %d after move", x)
		}
	}
}

func TestIncrementalNoEditNoRecompute(t *testing.T) {
	g := graph.Path(10)
	im := NewIncrementalMarker(g)
	im.Marked()
	if im.PendingDirty() != 0 {
		t.Fatalf("a read without edits would recompute %d nodes", im.PendingDirty())
	}
}

func TestIncrementalRemoveMissingEdge(t *testing.T) {
	g := graph.Path(4)
	im := NewIncrementalMarker(g)
	im.RemoveEdge(0, 3) // not an edge
	if im.PendingDirty() != 0 {
		t.Fatal("removing a missing edge dirtied nodes")
	}
}

// TestIncrementalFlippedAndToggleReports: AddEdge and RemoveEdge report
// whether they changed the graph (a no-op dirties nothing), and Flipped
// lists exactly the nodes whose marker the latest Marked changed.
func TestIncrementalFlippedAndToggleReports(t *testing.T) {
	rng := xrand.New(29)
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(30)
		g := graph.New(n)
		im := NewIncrementalMarker(g)
		if len(im.Flipped()) != 0 {
			t.Fatal("a new marker reports flips")
		}
		prev := append([]bool(nil), im.Marked()...)
		for step := 0; step < 40; step++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			// Toggle {u, v}; repeating the toggle's direction is a no-op.
			if g.HasEdge(u, v) {
				if !im.RemoveEdge(u, v) || im.RemoveEdge(u, v) {
					t.Fatalf("trial %d: RemoveEdge(%d, %d) misreported", trial, u, v)
				}
			} else if !im.AddEdge(u, v) || im.AddEdge(u, v) {
				t.Fatalf("trial %d: AddEdge(%d, %d) misreported", trial, u, v)
			}
			if step%3 != 0 {
				continue
			}
			dirty := im.PendingDirty()
			got := im.Marked()
			flipped := map[graph.NodeID]bool{}
			for _, x := range im.Flipped() {
				flipped[x] = true
			}
			for x := range got {
				if flipped[graph.NodeID(x)] != (got[x] != prev[x]) {
					t.Fatalf("trial %d step %d: node %d flipped=%v, marker %v -> %v", trial, step, x, flipped[graph.NodeID(x)], prev[x], got[x])
				}
			}
			if len(im.Flipped()) > dirty {
				t.Fatalf("trial %d step %d: %d flips from %d dirty nodes", trial, step, len(im.Flipped()), dirty)
			}
			copy(prev, got)
		}
	}
	g := graph.Path(4)
	im := NewIncrementalMarker(g)
	if im.AddEdge(0, 1) || im.RemoveEdge(0, 3) || im.PendingDirty() != 0 {
		t.Fatal("a no-op toggle reported a change or dirtied nodes")
	}
}

func TestIncrementalBatchingDeduplicates(t *testing.T) {
	// Many edits around the same hub dirty the hub once per flush, not
	// once per edit.
	g := graph.Star(10)
	im := NewIncrementalMarker(g)
	im.Marked()
	im.RemoveEdge(0, 1)
	im.RemoveEdge(0, 2)
	im.RemoveEdge(0, 3)
	dirty := im.PendingDirty()
	// Affected sets: {0,1}, {0,2}, {0,3} -> {0,1,2,3}.
	if dirty != 4 {
		t.Fatalf("dirty = %d, want 4", dirty)
	}
	im.Marked()
	if im.PendingDirty() != 0 {
		t.Fatalf("%d nodes still pending after Marked, want 0", im.PendingDirty())
	}
}

func TestIncrementalAffectedSetIsExactlyCommonNeighbors(t *testing.T) {
	// Toggling edge {a, b} in a graph where c is adjacent to both a and b
	// but d is adjacent to only a: c must be dirtied, d must not.
	g := graph.FromEdges(5, [][2]graph.NodeID{
		{0, 2}, {1, 2}, // c = 2 adjacent to both a=0, b=1
		{0, 3},         // d = 3 adjacent to a only
		{0, 4}, {1, 4}, // another common neighbor 4
	})
	im := NewIncrementalMarker(g)
	im.Marked()
	im.AddEdge(0, 1)
	if im.PendingDirty() != 4 { // {0, 1, 2, 4}
		t.Fatalf("dirty = %d, want 4", im.PendingDirty())
	}
	got := im.Marked()
	want := Mark(g)
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("mismatch at %d", x)
		}
	}
}

func BenchmarkIncrementalOneMove(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(5), 2000)
	if err != nil {
		b.Fatal(err)
	}
	im := NewIncrementalMarker(inst.Graph)
	im.Marked()
	rng := xrand.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Toggle a random edge back and forth (net zero topology drift).
		u := graph.NodeID(rng.Intn(100))
		v := graph.NodeID(rng.Intn(100))
		if u == v {
			continue
		}
		if inst.Graph.HasEdge(u, v) {
			im.RemoveEdge(u, v)
			im.Marked()
			im.AddEdge(u, v)
		} else {
			im.AddEdge(u, v)
			im.Marked()
			im.RemoveEdge(u, v)
		}
		im.Marked()
	}
}

func BenchmarkFullRemark(b *testing.B) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(5), 2000)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]bool, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MarkInto(inst.Graph, dst)
	}
}
