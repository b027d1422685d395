package udg

import (
	"fmt"
	"math"
	"testing"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/xrand"
)

func TestBuildMatchesBrute(t *testing.T) {
	for _, n := range []int{0, 1, 2, 20, 150} {
		for _, r := range []float64{5, 25, 80} {
			cfg := Config{N: n, Field: geom.Square(100), Radius: r}
			rng := xrand.New(uint64(n)*31 + uint64(r))
			pos := RandomPositions(cfg, rng)
			fast := Build(pos, cfg.Field, r)
			brute := BuildBrute(pos, r)
			if !graph.Equal(fast, brute) {
				t.Fatalf("n=%d r=%v: grid build != brute build", n, r)
			}
		}
	}
}

func TestBuildSymmetric(t *testing.T) {
	cfg := PaperConfig(60)
	rng := xrand.New(5)
	inst, err := Random(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst.Graph.Edges(func(u, v graph.NodeID) {
		if !inst.Graph.HasEdge(v, u) {
			t.Fatalf("asymmetric edge %d-%d", u, v)
		}
	})
}

func TestBuildRespectsRadius(t *testing.T) {
	cfg := PaperConfig(80)
	rng := xrand.New(9)
	inst, err := Random(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	r2 := cfg.Radius * cfg.Radius
	n := inst.Graph.NumNodes()
	for v := 0; v < n; v++ {
		for u := v + 1; u < n; u++ {
			d2 := inst.Positions[v].Dist2(inst.Positions[u])
			has := inst.Graph.HasEdge(graph.NodeID(v), graph.NodeID(u))
			if has != (d2 <= r2) {
				t.Fatalf("edge %d-%d: has=%v dist2=%v r2=%v", v, u, has, d2, r2)
			}
		}
	}
}

func TestPaperConfig(t *testing.T) {
	c := PaperConfig(50)
	if c.N != 50 || c.Radius != 25 || c.Field != geom.Square(100) {
		t.Fatalf("PaperConfig = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{N: -1, Field: geom.Square(100), Radius: 25},
		{N: 10, Field: geom.Square(100), Radius: 0},
		{N: 10, Field: geom.Square(100), Radius: -5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	cfg := PaperConfig(40)
	a, err := Random(cfg, xrand.New(123))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(cfg, xrand.New(123))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(a.Graph, b.Graph) {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("same seed produced different positions at %d", i)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	cfg := PaperConfig(50)
	inst, err := RandomConnected(cfg, xrand.New(7), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Graph.IsConnected() {
		t.Fatal("RandomConnected returned a disconnected graph")
	}
}

func TestRandomConnectedExhaustsBudget(t *testing.T) {
	// With 2 hosts in a huge field and a tiny radius, connectivity is
	// effectively impossible; the sampler must give up cleanly.
	cfg := Config{N: 2, Field: geom.Square(1e6), Radius: 0.001}
	_, err := RandomConnected(cfg, xrand.New(1), 5)
	if err != ErrNoConnectedInstance {
		t.Fatalf("err = %v, want ErrNoConnectedInstance", err)
	}
}

func TestRandomConnectedInvalidConfig(t *testing.T) {
	if _, err := RandomConnected(Config{N: 3, Radius: 0}, xrand.New(1), 5); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPositionsInsideField(t *testing.T) {
	cfg := PaperConfig(200)
	pos := RandomPositions(cfg, xrand.New(77))
	for i, p := range pos {
		if !cfg.Field.Contains(p) {
			t.Fatalf("position %d outside field: %v", i, p)
		}
	}
}

func TestRebuild(t *testing.T) {
	cfg := PaperConfig(30)
	inst, err := RandomConnected(cfg, xrand.New(15), 100)
	if err != nil {
		t.Fatal(err)
	}
	before := inst.Graph.NumEdges()
	// Move every host to the same point: graph must become complete.
	for i := range inst.Positions {
		inst.Positions[i] = geom.Point{X: 50, Y: 50}
	}
	inst.Rebuild()
	if !inst.Graph.IsComplete() {
		t.Fatalf("co-located hosts must form a complete graph (edges %d -> %d)",
			before, inst.Graph.NumEdges())
	}
}

func TestZeroHosts(t *testing.T) {
	inst, err := Random(Config{N: 0, Field: geom.Square(100), Radius: 25}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Graph.NumNodes() != 0 {
		t.Fatal("zero-host instance has nodes")
	}
}

func BenchmarkBuildGrid100(b *testing.B) {
	cfg := PaperConfig(100)
	pos := RandomPositions(cfg, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(pos, cfg.Field, cfg.Radius)
	}
}

// BenchmarkBuild times the unit-disk build at the root
// BenchmarkComputePipeline's sizes and density (field side 10√N, radius
// 25: about 20 neighbours a host), at one and two workers.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		c := Config{N: n, Field: geom.Square(10 * math.Sqrt(float64(n))), Radius: 25}
		pos := RandomPositions(c, xrand.New(uint64(n)))
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("N=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					BuildParallel(pos, c.Field, c.Radius, w)
				}
			})
		}
	}
}

func BenchmarkBuildBrute100(b *testing.B) {
	cfg := PaperConfig(100)
	pos := RandomPositions(cfg, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildBrute(pos, cfg.Radius)
	}
}

// TestBuildAllocations pins Build's allocation count at the paper's N=100
// and at N=10⁴ in a field of side 10√N: 71 and 6,183, or one more under
// the race detector, whose instrumented build has slices.Grow allocate
// its zeroed extension separately. Most of them are the grid's per-cell
// slices; the edge list, the CSR arena and the graph take a handful.
func TestBuildAllocations(t *testing.T) {
	for _, tc := range []struct {
		c    Config
		want float64
	}{
		{PaperConfig(100), 72},
		{Config{N: 10_000, Field: geom.Square(1000), Radius: 25}, 6184},
	} {
		pos := RandomPositions(tc.c, xrand.New(1))
		got := testing.AllocsPerRun(5, func() { Build(pos, tc.c.Field, tc.c.Radius) })
		if got > tc.want {
			t.Errorf("N=%d: Build allocates %v per call, want <= %v", tc.c.N, got, tc.want)
		}
	}
}
