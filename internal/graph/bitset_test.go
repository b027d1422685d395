package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// udgGraph generates a random unit-disk-style instance: n points uniform in
// a 100x100 field, radius drawn from [15, 40]. This reproduces the density
// regime the simulator runs in (package udg proper is not importable here —
// it depends on graph).
type udgGraph struct {
	g *Graph
}

// Generate implements quick.Generator.
func (udgGraph) Generate(r *rand.Rand, size int) reflect.Value {
	n := 3 + r.Intn(size+60)
	radius := 15 + 25*r.Float64()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = 100 * r.Float64()
		ys[i] = 100 * r.Float64()
	}
	g := New(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return reflect.ValueOf(udgGraph{g: g})
}

// withAndWithoutBits returns the instance's graph twice: the generated one
// with the bitset view enabled, and a clone stripped to merge scans only.
func withAndWithoutBits(in udgGraph) (bits, merge *Graph) {
	merge = in.g.Clone()
	merge.DisableBitset()
	bits = in.g
	bits.EnableBitset()
	return bits, merge
}

func TestQuickBitsetClosedSubsetAgrees(t *testing.T) {
	f := func(in udgGraph) bool {
		bits, merge := withAndWithoutBits(in)
		n := NodeID(bits.NumNodes())
		for v := NodeID(0); v < n; v++ {
			for _, u := range merge.Neighbors(v) {
				if bits.ClosedSubset(v, u) != merge.ClosedSubset(v, u) {
					t.Logf("ClosedSubset(%d, %d) disagrees", v, u)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBitsetOpenSubsetOfUnionAgrees(t *testing.T) {
	f := func(in udgGraph) bool {
		bits, merge := withAndWithoutBits(in)
		n := NodeID(bits.NumNodes())
		for v := NodeID(0); v < n; v++ {
			nb := merge.Neighbors(v)
			for i := 0; i < len(nb); i++ {
				for j := i + 1; j < len(nb); j++ {
					u, w := nb[i], nb[j]
					if bits.OpenSubsetOfUnion(v, u, w) != merge.OpenSubsetOfUnion(v, u, w) {
						t.Logf("OpenSubsetOfUnion(%d, %d, %d) disagrees", v, u, w)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBitsetMarkingAgrees(t *testing.T) {
	f := func(in udgGraph) bool {
		bits, merge := withAndWithoutBits(in)
		n := NodeID(bits.NumNodes())
		for v := NodeID(0); v < n; v++ {
			if bits.HasUnconnectedNeighbors(v) != merge.HasUnconnectedNeighbors(v) {
				t.Logf("HasUnconnectedNeighbors(%d) disagrees", v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBitsetForEachCommonNeighborAgrees(t *testing.T) {
	f := func(in udgGraph) bool {
		bits, merge := withAndWithoutBits(in)
		n := NodeID(bits.NumNodes())
		for u := NodeID(0); u < n; u++ {
			for _, w := range merge.Neighbors(u) {
				if w < u {
					continue
				}
				var got, want []NodeID
				bits.ForEachCommonNeighbor(u, w, func(x NodeID) { got = append(got, x) })
				merge.ForEachCommonNeighbor(u, w, func(x NodeID) { want = append(want, x) })
				if !reflect.DeepEqual(got, want) {
					t.Logf("ForEachCommonNeighbor(%d, %d): bits %v, merge %v", u, w, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBitsetTracksMutation(t *testing.T) {
	// AddEdge/RemoveEdge must keep the dense view coherent: HasEdge via the
	// bitset path must agree with a bitset-free clone after random toggles.
	f := func(in udgGraph, toggles []uint16) bool {
		bits, merge := withAndWithoutBits(in)
		n := bits.NumNodes()
		for _, tg := range toggles {
			u := NodeID(int(tg) % n)
			v := NodeID(int(tg>>8) % n)
			if u == v {
				continue
			}
			if bits.HasEdge(u, v) {
				bits.RemoveEdge(u, v)
				merge.RemoveEdge(u, v)
			} else {
				bits.AddEdge(u, v)
				merge.AddEdge(u, v)
			}
		}
		if bits.NumEdges() != merge.NumEdges() {
			return false
		}
		for u := NodeID(0); int(u) < n; u++ {
			for v := NodeID(0); int(v) < n; v++ {
				if bits.HasEdge(u, v) != merge.HasEdge(u, v) {
					t.Logf("HasEdge(%d, %d) disagrees after toggles", u, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetEnableReusesStorage(t *testing.T) {
	g := Complete(64)
	g.EnableBitset()
	first := &g.bits.rows[0]
	g.EnableBitset() // refresh on same-sized graph
	if &g.bits.rows[0] != first {
		t.Fatal("EnableBitset reallocated storage for a same-sized graph")
	}
}

// TestAutoBitsetBuildsOnce pins that the view is built once: AutoBitset
// on a graph that already carries it allocates nothing and rebuilds
// nothing (a bit planted in the rows survives), and a clone keeps the
// rows Clone copied.
func TestAutoBitsetBuildsOnce(t *testing.T) {
	g := Cycle(100)
	g.AutoBitset()
	if allocs := testing.AllocsPerRun(10, g.AutoBitset); allocs != 0 {
		t.Fatalf("AutoBitset on a viewed graph allocates %v, want 0", allocs)
	}
	g.bits.row(0).set(50) // not an edge: a rebuild would clear it
	g.AutoBitset()
	if !g.bits.row(0).Test(50) {
		t.Fatal("AutoBitset rebuilt a graph that already had the view")
	}
	c := g.Clone()
	c.AutoBitset()
	if !c.bits.row(0).Test(50) {
		t.Fatal("AutoBitset rebuilt the view Clone copied")
	}
}

func TestBitsetCloneIndependent(t *testing.T) {
	g := Cycle(10)
	g.EnableBitset()
	c := g.Clone()
	if !c.BitsetEnabled() {
		t.Fatal("clone dropped the bitset view")
	}
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if c.HasEdge(0, 1) {
		t.Fatal("clone did not apply its own mutation")
	}
}

func TestBitsetCount(t *testing.T) {
	g := Star(70)
	g.EnableBitset()
	count := func(v NodeID) int {
		n := 0
		for _, w := range g.bits.row(v) {
			n += popcount(w)
		}
		return n
	}
	if got := count(0); got != 69 {
		t.Fatalf("hub Count = %d, want 69", got)
	}
	if got := count(1); got != 1 {
		t.Fatalf("leaf Count = %d, want 1", got)
	}
	if g.bits.row(0).Test(0) {
		t.Fatal("self bit set")
	}
	if !g.bits.row(0).Test(42) {
		t.Fatal("neighbor bit missing")
	}
}

func TestNeighborBitsetNilWhenDisabled(t *testing.T) {
	g := Path(5)
	if g.bits.rows != nil {
		t.Fatal("bitset rows non-nil without EnableBitset")
	}
	g.EnableBitset()
	g.DisableBitset()
	if g.BitsetEnabled() {
		t.Fatal("DisableBitset left the view enabled")
	}
}
