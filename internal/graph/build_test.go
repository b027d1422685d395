package graph

import (
	"testing"
	"testing/quick"

	"pacds/internal/xrand"
)

func TestFromEdgeFuncMatchesFromEdges(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(120)
		m := rng.Intn(4 * n)
		edges := make([][2]NodeID, 0, m)
		for len(edges) < m {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			edges = append(edges, [2]NodeID{u, v})
		}
		// Duplicate a prefix of the list: FromEdgeFunc must deduplicate
		// exactly like AddEdge's no-op behavior.
		edges = append(edges, edges[:len(edges)/3]...)
		want := FromEdges(n, edges)
		got := FromEdgeFunc(n, func(emit func(u, v NodeID)) {
			for _, e := range edges {
				emit(e[0], e[1])
			}
		})
		return Equal(want, got) && want.NumEdges() == got.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgeFuncValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("self loop", func() {
		FromEdgeFunc(3, func(emit func(u, v NodeID)) { emit(1, 1) })
	})
	mustPanic("out of range", func() {
		FromEdgeFunc(3, func(emit func(u, v NodeID)) { emit(0, 3) })
	})
	mustPanic("negative", func() {
		FromEdgeFunc(3, func(emit func(u, v NodeID)) { emit(-1, 2) })
	})
}

// TestFromEdgeFuncAddEdgeAfter pins the arena aliasing contract: growing
// one row with AddEdge after construction must not corrupt its neighbors'
// rows even though all rows share one backing array.
func TestFromEdgeFuncAddEdgeAfter(t *testing.T) {
	g := FromEdgeFunc(5, func(emit func(u, v NodeID)) {
		emit(0, 1)
		emit(1, 2)
		emit(2, 3)
		emit(3, 4)
	})
	g.AddEdge(0, 2) // row 0 grows; row 1's arena slot must survive
	want := FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}})
	if !Equal(g, want) {
		t.Fatal("AddEdge after FromEdgeFunc corrupted adjacency")
	}
}

func TestFromSortedAdjacency(t *testing.T) {
	g := FromSortedAdjacency([][]NodeID{
		{1, 2},
		{0},
		{0, 3},
		{2},
	})
	want := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {2, 3}})
	if !Equal(g, want) {
		t.Fatal("FromSortedAdjacency mismatch")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}

	mustPanic := func(name string, adj [][]NodeID) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		FromSortedAdjacency(adj)
	}
	mustPanic("unsorted row", [][]NodeID{{2, 1}, {0}, {0}})
	mustPanic("duplicate neighbor", [][]NodeID{{1, 1}, {0, 0}})
	mustPanic("self loop", [][]NodeID{{0}})
	mustPanic("out of range", [][]NodeID{{5}})
	mustPanic("odd arc count", [][]NodeID{{1}, {}})
}

// TestFromEdgeFuncAllocations pins FromEdgeFunc's allocation count, which
// every cdsd compute, verify and session create pays: a fixed handful per
// graph whatever its size, never a per-host cost from sorting the rows.
func TestFromEdgeFuncAllocations(t *testing.T) {
	for _, n := range []int{50, 150, 400} {
		rng := xrand.New(uint64(n))
		edges := make([][2]NodeID, 0, 10*n)
		for len(edges) < cap(edges) {
			if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
				edges = append(edges, [2]NodeID{u, v})
			}
		}
		visit := func(emit func(u, v NodeID)) {
			for _, e := range edges {
				emit(e[0], e[1])
			}
		}
		if got := testing.AllocsPerRun(20, func() { FromEdgeFunc(n, visit) }); got > 7 {
			t.Errorf("N=%d: FromEdgeFunc allocates %v per call, want <= 7", n, got)
		}
	}
}
