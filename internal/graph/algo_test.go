package graph

import (
	"testing"

	"pacds/internal/xrand"
)

func TestBFSPath(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("unreachable nodes: %v", dist)
	}
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %d", dist[1])
	}
}

func TestShortestPath(t *testing.T) {
	g := Cycle(6)
	p := g.ShortestPath(0, 3)
	if len(p) != 4 {
		t.Fatalf("shortest path 0->3 on C6 = %v, want length 4", p)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	for i := 1; i < len(p); i++ {
		if !g.HasEdge(p[i-1], p[i]) {
			t.Fatalf("path uses non-edge %d-%d", p[i-1], p[i])
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := Path(3)
	p := g.ShortestPath(1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Fatalf("unreachable path = %v, want nil", p)
	}
}

func TestShortestPathMatchesBFS(t *testing.T) {
	g := randomGraph(40, 0.1, 7)
	dist := g.BFS(0)
	for v := NodeID(1); v < 40; v++ {
		p := g.ShortestPath(0, v)
		if dist[v] == -1 {
			if p != nil {
				t.Fatalf("node %d: BFS says unreachable, path %v", v, p)
			}
			continue
		}
		if len(p)-1 != dist[v] {
			t.Fatalf("node %d: path length %d, BFS dist %d", v, len(p)-1, dist[v])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// 5, 6 isolated
	label, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if label[3] != label[4] {
		t.Fatal("3,4 should share a component")
	}
	if label[5] == label[6] {
		t.Fatal("5 and 6 should be separate components")
	}
}

func TestIsConnected(t *testing.T) {
	if !Path(10).IsConnected() {
		t.Fatal("path not connected")
	}
	if !New(0).IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
	if !New(1).IsConnected() {
		t.Fatal("single node should be connected")
	}
	g := New(2)
	if g.IsConnected() {
		t.Fatal("two isolated nodes reported connected")
	}
}

func TestComponentOf(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	comp := g.ComponentOf(0)
	if len(comp) != 3 {
		t.Fatalf("ComponentOf(0) = %v", comp)
	}
	comp = g.ComponentOf(3)
	if len(comp) != 1 || comp[0] != 3 {
		t.Fatalf("ComponentOf(3) = %v", comp)
	}
}

func TestInducedSubgraphConnected(t *testing.T) {
	g := Path(5)
	// {0,1,2} connected along the path
	if !g.InducedSubgraphConnected([]bool{true, true, true, false, false}) {
		t.Fatal("contiguous path prefix should be connected")
	}
	// {0,2} not connected in induced subgraph
	if g.InducedSubgraphConnected([]bool{true, false, true, false, false}) {
		t.Fatal("0 and 2 are not adjacent; induced set should be disconnected")
	}
	// empty and singleton sets are connected
	if !g.InducedSubgraphConnected(make([]bool, 5)) {
		t.Fatal("empty set should be connected")
	}
	if !g.InducedSubgraphConnected([]bool{false, false, true, false, false}) {
		t.Fatal("singleton should be connected")
	}
}

func TestIsDominatingSet(t *testing.T) {
	g := Star(5)
	hubOnly := []bool{true, false, false, false, false}
	if !g.IsDominatingSet(hubOnly) {
		t.Fatal("hub of a star dominates")
	}
	leafOnly := []bool{false, true, false, false, false}
	if g.IsDominatingSet(leafOnly) {
		t.Fatal("single leaf does not dominate a star with 3 other leaves")
	}
	all := []bool{true, true, true, true, true}
	if !g.IsDominatingSet(all) {
		t.Fatal("full set always dominates")
	}
}

func TestIsDominatingSetIsolated(t *testing.T) {
	g := New(2) // two isolated nodes
	if g.IsDominatingSet([]bool{true, false}) {
		t.Fatal("isolated node 1 is not dominated")
	}
	if !g.IsDominatingSet([]bool{true, true}) {
		t.Fatal("all nodes in set must dominate")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	inSet := []bool{true, true, true, true, false, false}
	sub, toOld := g.InducedSubgraph(inSet)
	if sub.NumNodes() != 4 {
		t.Fatalf("induced nodes = %d", sub.NumNodes())
	}
	if sub.NumEdges() != 3 { // 0-1, 1-2, 2-3 survive; 5-0 and 3-4 cut
		t.Fatalf("induced edges = %d, want 3", sub.NumEdges())
	}
	for newID, oldID := range toOld {
		if !inSet[oldID] {
			t.Fatalf("mapping includes excluded node %d", oldID)
		}
		_ = newID
	}
}

func TestBFSWithin(t *testing.T) {
	g := Path(5)
	allowed := []bool{true, true, false, true, true}
	dist := g.BFSWithin(0, allowed)
	if dist[1] != 1 {
		t.Fatalf("dist[1] = %d", dist[1])
	}
	if dist[3] != -1 || dist[4] != -1 {
		t.Fatalf("nodes beyond the gap should be unreachable: %v", dist)
	}
	if dist[2] != -1 {
		t.Fatalf("disallowed node should be unreachable: %v", dist)
	}
}

func TestBFSWithinPanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BFSWithin with disallowed source did not panic")
		}
	}()
	Path(3).BFSWithin(0, []bool{false, true, true})
}

func TestDiameter(t *testing.T) {
	if d := Path(5).Diameter(); d != 4 {
		t.Fatalf("P5 diameter = %d, want 4", d)
	}
	if d := Cycle(6).Diameter(); d != 3 {
		t.Fatalf("C6 diameter = %d, want 3", d)
	}
	if d := Complete(4).Diameter(); d != 1 {
		t.Fatalf("K4 diameter = %d, want 1", d)
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(5)
	if e := g.Eccentricity(2); e != 2 {
		t.Fatalf("center eccentricity = %d, want 2", e)
	}
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("end eccentricity = %d, want 4", e)
	}
}

// TestDiameterMatchesBFS checks Diameter and Eccentricity, which share
// one dist/queue pair across sources, against the largest distance any
// BFS from a fresh pair finds, on sparse random graphs with several
// components and isolated nodes.
func TestDiameterMatchesBFS(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		g := New(n)
		for k := rng.Intn(2 * n); k > 0; k-- {
			if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
				g.AddEdge(u, v)
			}
		}
		want := 0
		for v := 0; v < n; v++ {
			ecc := 0
			for _, d := range g.BFS(NodeID(v)) {
				ecc = max(ecc, d)
			}
			if got := g.Eccentricity(NodeID(v)); got != ecc {
				t.Fatalf("trial %d: Eccentricity(%d) = %d, BFS says %d", trial, v, got, ecc)
			}
			want = max(want, ecc)
		}
		if got := g.Diameter(); got != want {
			t.Fatalf("trial %d: Diameter = %d, BFS says %d", trial, got, want)
		}
	}
}

// TestDiameterAllocations pins Diameter at its dist/queue pair, however
// many sources it runs a BFS from. cdsd's verify endpoint calls it
// through cds.Analyze on every backbone.
func TestDiameterAllocations(t *testing.T) {
	for _, g := range []*Graph{New(0), Path(300), Cycle(1000)} {
		if got := testing.AllocsPerRun(5, func() { g.Diameter() }); got > 2 {
			t.Errorf("N=%d: Diameter allocates %v per call, want <= 2", g.NumNodes(), got)
		}
	}
}
