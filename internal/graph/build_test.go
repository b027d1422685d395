package graph

import (
	"fmt"
	"slices"
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
		if !Equal(want, got) || want.NumEdges() != got.NumEdges() {
			return false
		}
		// The flat core over the same pairs in four orders: canonical,
		// which skips the row sort, and shuffled, swapped and repeated,
		// which take it.
		var canonical []NodeID
		want.Edges(func(u, v NodeID) { canonical = append(canonical, u, v) })
		shuffled := slices.Clone(canonical)
		rng.Shuffle(len(shuffled)/2, func(i, j int) {
			shuffled[2*i], shuffled[2*j] = shuffled[2*j], shuffled[2*i]
			shuffled[2*i+1], shuffled[2*j+1] = shuffled[2*j+1], shuffled[2*i+1]
		})
		swapped := slices.Clone(canonical)
		for i := 0; i < len(swapped); i += 4 {
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		}
		repeated := slices.Concat(canonical, canonical[:len(canonical)/4*2])
		for _, flat := range [][]NodeID{canonical, shuffled, swapped, repeated} {
			f := FromFlatEdges(n, flat)
			if !Equal(want, f) || f.NumEdges() != want.NumEdges() || f.BitsetEnabled() != got.BitsetEnabled() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFromFlatEdgesCanonicalSkipsSort pins the no-sort path: only a
// list in canonical order skips the row sort, and then the fill pass
// alone lays the rows out sorted. A list that leaves canonical order
// anywhere, even at its last pair, is sorted.
func TestFromFlatEdgesCanonicalSkipsSort(t *testing.T) {
	want := FromEdges(5, [][2]NodeID{{0, 1}, {0, 4}, {1, 2}, {1, 4}, {2, 3}, {3, 4}})
	for _, tc := range []struct {
		name      string
		flat      []NodeID
		canonical bool
	}{
		{"canonical", []NodeID{0, 1, 0, 4, 1, 2, 1, 4, 2, 3, 3, 4}, true},
		{"last pair swapped", []NodeID{0, 1, 0, 4, 1, 2, 1, 4, 2, 3, 4, 3}, false},
		{"last pair repeated", []NodeID{0, 1, 0, 4, 1, 2, 1, 4, 2, 3, 3, 4, 3, 4}, false},
		{"descending", []NodeID{3, 4, 2, 3, 1, 4, 1, 2, 0, 4, 0, 1}, false},
		{"same u, v falls", []NodeID{0, 4, 0, 1, 1, 2, 1, 4, 2, 3, 3, 4}, false},
	} {
		b := newCSR(5)
		for i := 0; i < len(tc.flat); i += 2 {
			b.count(tc.flat[i], tc.flat[i+1])
		}
		b.place()
		for i := 0; i < len(tc.flat); i += 2 {
			b.fill(tc.flat[i], tc.flat[i+1])
		}
		if b.canonical != tc.canonical {
			t.Errorf("%s: canonical = %v, want %v", tc.name, b.canonical, tc.canonical)
		}
		if g := b.finish(); !Equal(g, want) || g.NumEdges() != want.NumEdges() {
			t.Errorf("%s: rows %v, want %v", tc.name, g.adj, want.adj)
		}
		if g := FromFlatEdges(5, tc.flat); !Equal(g, want) {
			t.Errorf("%s: FromFlatEdges rows %v, want %v", tc.name, g.adj, want.adj)
		}
	}
}

func TestFromEdgeFuncValidation(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg := fmt.Sprint(r); msg != want {
				t.Fatalf("%s: panic %q, want %q", name, msg, want)
			}
		}()
		fn()
	}
	mustPanic("self loop", "graph: self loop", func() {
		FromEdgeFunc(3, func(emit func(u, v NodeID)) { emit(1, 1) })
	})
	mustPanic("out of range", "graph: node 3 out of range [0, 3)", func() {
		FromEdgeFunc(3, func(emit func(u, v NodeID)) { emit(0, 3) })
	})
	mustPanic("negative", "graph: node -1 out of range [0, 3)", func() {
		FromEdgeFunc(3, func(emit func(u, v NodeID)) { emit(-1, 2) })
	})
	mustPanic("flat self loop", "graph: self loop", func() { FromFlatEdges(3, []NodeID{0, 1, 2, 2}) })
	mustPanic("flat out of range", "graph: node 3 out of range [0, 3)", func() { FromFlatEdges(3, []NodeID{3, 0}) })
	mustPanic("flat negative", "graph: node -1 out of range [0, 3)", func() { FromFlatEdges(3, []NodeID{0, -1}) })
	mustPanic("flat odd length", "graph: FromFlatEdges odd-length edge list", func() { FromFlatEdges(3, []NodeID{0, 1, 2}) })
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

// TestCloneAllocations pins Clone at a fixed handful of allocations —
// the graph, its row headers, one arena and the bitset view — whatever
// the node count. distributed.NewSession clones every session-create
// graph, 300 to 3,000 hosts on cdsd's sessions workload.
func TestCloneAllocations(t *testing.T) {
	for _, n := range []int{300, 3000} {
		rng := xrand.New(uint64(n))
		flat := make([]NodeID, 0, 20*n)
		for len(flat) < cap(flat) {
			if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
				flat = append(flat, u, v)
			}
		}
		g := FromFlatEdges(n, flat)
		if got := testing.AllocsPerRun(10, func() { g.Clone() }); got > 4 {
			t.Errorf("N=%d: Clone allocates %v per call, want <= 4", n, got)
		}
	}
}

// TestCloneArenaMutation pins the arena clone's aliasing contract: a
// clone's rows share one backing array, so filling a row's headroom,
// growing the full row, shrinking it and growing it again must leave the
// original and every other row of the clone as they were.
func TestCloneArenaMutation(t *testing.T) {
	const n = 40
	rng := xrand.New(7)
	var edges [][2]NodeID
	for len(edges) < 4*n {
		if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
			edges = append(edges, [2]NodeID{u, v})
		}
	}
	g := FromEdgeFunc(n, func(emit func(u, v NodeID)) {
		for _, e := range edges {
			emit(e[0], e[1])
		}
	})
	c := g.Clone()
	for v, row := range c.adj {
		if room := cap(row) - len(row); room > cloneHeadroom(len(row)) {
			t.Fatalf("row %d has room for %d more arcs, past its headroom", v, room)
		}
	}
	// ref takes the same mutations on rows of its own.
	ref := FromEdges(n, edges)
	for v := NodeID(0); v < n; v += 3 {
		var add []NodeID
		for w := NodeID(0); w < n; w++ {
			if w != v && !c.HasEdge(v, w) {
				add = append(add, w)
			}
		}
		drop := c.Neighbors(v)[0]
		// Fill the headroom, so that the next AddEdge meets a full row.
		for len(c.adj[v]) < cap(c.adj[v]) {
			for _, h := range []*Graph{c, ref} {
				h.AddEdge(v, add[0])
			}
			add = add[1:]
		}
		for _, h := range []*Graph{c, ref} {
			h.AddEdge(v, add[0]) // row v is full: it must reallocate
			h.RemoveEdge(v, drop)
			h.AddEdge(v, add[1])
		}
	}
	if !Equal(c, ref) {
		t.Fatal("mutating the clone's rows corrupted its other rows")
	}
	if !Equal(g, FromEdges(n, edges)) {
		t.Fatal("mutating the clone changed the original")
	}
	for v := NodeID(0); v < n; v++ {
		for _, u := range c.Neighbors(v) {
			if !c.bits.row(v).Test(u) {
				t.Fatalf("clone's bitset view misses %d-%d", v, u)
			}
		}
	}
}
