package udg

import (
	"testing"
	"testing/quick"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/par"
	"pacds/internal/xrand"
)

// layoutPositions samples host positions from one of the three placement
// families — uniform, clustered, quasi-style (uniform at quasi density) —
// so the differential tests cover the degree skew each family produces.
func layoutPositions(layout int, c Config, rng *xrand.RNG) []geom.Point {
	switch layout % 3 {
	case 1:
		return ClusteredPositions(c, ClusterConfig{
			Clusters: 1 + rng.Intn(6),
			Spread:   2 + rng.Float64()*25,
		}, rng)
	case 2:
		q := PaperQuasiConfig(c.N)
		q.Field = c.Field
		return RandomPositions(Config{N: q.N, Field: q.Field, Radius: q.RMax}, rng)
	default:
		return RandomPositions(c, rng)
	}
}

// rebuild copies g's edges through graph.FromEdgeFunc, the builder cdsd's
// request graphs go through.
func rebuild(g *graph.Graph) *graph.Graph {
	return graph.FromEdgeFunc(g.NumNodes(), func(emit func(u, v graph.NodeID)) { g.Edges(emit) })
}

// TestBuildParallelMatchesBuild pins BuildParallel ≡ Build ≡ BuildBrute ≡
// a graph.FromEdgeFunc rebuild (graph.Equal plus matching bitset
// configuration) across worker counts, sizes on either side of one and
// two par.Block-sized blocks (the empty instance included), and all
// three placement families. Every multi-worker call above one block
// joins per-block edge lists.
func TestBuildParallelMatchesBuild(t *testing.T) {
	rng := xrand.New(77)
	sizes := []int{0, 1, 50, par.Block - 1, par.Block, par.Block + 1, 2*par.Block - 1, 2 * par.Block, 2*par.Block + 1, 900, 1500}
	for layout := 0; layout < 3; layout++ {
		for _, n := range sizes {
			c := Config{N: n, Field: geom.Square(60 + rng.Float64()*240), Radius: 5 + rng.Float64()*30}
			pos := layoutPositions(layout, c, rng)
			want := Build(pos, c.Field, c.Radius)
			brute := BuildBrute(pos, c.Radius)
			if !graph.Equal(want, brute) || want.BitsetEnabled() != brute.BitsetEnabled() {
				t.Fatalf("layout=%d n=%d: BuildBrute != Build (bitset %v vs %v)",
					layout, n, brute.BitsetEnabled(), want.BitsetEnabled())
			}
			if re := rebuild(want); !graph.Equal(want, re) || want.BitsetEnabled() != re.BitsetEnabled() {
				t.Fatalf("layout=%d n=%d: FromEdgeFunc != Build (bitset %v vs %v)",
					layout, n, re.BitsetEnabled(), want.BitsetEnabled())
			}
			for _, w := range []int{0, 1, 2, 3, 8} {
				got := BuildParallel(pos, c.Field, c.Radius, w)
				if !graph.Equal(want, got) {
					t.Fatalf("layout=%d n=%d workers=%d: BuildParallel != Build", layout, n, w)
				}
				if want.BitsetEnabled() != got.BitsetEnabled() {
					t.Fatalf("layout=%d n=%d workers=%d: bitset configuration differs", layout, n, w)
				}
			}
		}
	}
}

// TestBuildParallelLargeSkipsBitset pins the bitset policy above the
// limit: a >4096-node parallel build must stay on the merge-scan path,
// like Build and a FromEdgeFunc rebuild.
func TestBuildParallelLargeSkipsBitset(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	c := Config{N: graph.BitsetMaxNodes + 100, Field: geom.Square(400), Radius: 12}
	pos := RandomPositions(c, xrand.New(3))
	g := BuildParallel(pos, c.Field, c.Radius, 4)
	if g.BitsetEnabled() {
		t.Fatal("bitset enabled above graph.BitsetMaxNodes")
	}
	if !graph.Equal(g, Build(pos, c.Field, c.Radius)) {
		t.Fatal("BuildParallel != Build at large n")
	}
	if re := rebuild(g); re.BitsetEnabled() || !graph.Equal(g, re) {
		t.Fatalf("FromEdgeFunc at large n: bitset %v, equal %v", re.BitsetEnabled(), graph.Equal(g, re))
	}
}

// TestBuildDifferentialProperty is the quick.Check differential over
// random radii and fields: Build, BuildParallel, and BuildBrute must
// produce identical graphs — including identical bitset configuration,
// now that BuildBrute applies the same auto-enable policy — for uniform,
// clustered, and quasi-density layouts.
func TestBuildDifferentialProperty(t *testing.T) {
	check := func(seed uint64, layout uint8) bool {
		rng := xrand.New(seed)
		c := Config{
			N:      rng.Intn(700),
			Field:  geom.Square(20 + rng.Float64()*380),
			Radius: 1 + rng.Float64()*60,
		}
		pos := layoutPositions(int(layout), c, rng)
		fast := Build(pos, c.Field, c.Radius)
		brute := BuildBrute(pos, c.Radius)
		parallel := BuildParallel(pos, c.Field, c.Radius, 4)
		if !graph.Equal(fast, brute) || !graph.Equal(fast, parallel) {
			t.Logf("seed=%d layout=%d n=%d r=%v: constructions diverge", seed, layout, c.N, c.Radius)
			return false
		}
		if fast.BitsetEnabled() != brute.BitsetEnabled() || fast.BitsetEnabled() != parallel.BitsetEnabled() {
			t.Logf("seed=%d layout=%d: bitset configurations diverge", seed, layout)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
