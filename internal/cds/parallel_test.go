package cds

import (
	"fmt"
	"testing"
	"testing/quick"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// Determinism across parallelism: ComputeParallel must be byte-identical
// to the sequential Compute — same Marked and Gateway contents, same
// GatewayIDs order, same Result fields — for every policy, at every
// worker count, on every topology family. These tests run in the tier-1
// -race gate (the Makefile race target includes ./internal/cds/), so the
// parallel marking pass is exercised under the race detector too.

// workerCounts spans the sequential short-circuit (1), an uneven split
// (3), and the benchmark fan-out (8). 0 exercises the GOMAXPROCS default.
var workerCounts = []int{0, 1, 2, 3, 8}

// assertResultsIdentical fails the test unless got is byte-identical to
// want in every Result field.
func assertResultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Policy != want.Policy {
		t.Fatalf("%s: policy %v != %v", label, got.Policy, want.Policy)
	}
	if !equalBools(want.Marked, got.Marked) {
		t.Fatalf("%s: marked sets differ", label)
	}
	if !equalBools(want.Gateway, got.Gateway) {
		t.Fatalf("%s: gateway sets differ\n got %v\nwant %v", label, got.GatewayIDs(), want.GatewayIDs())
	}
	gotIDs, wantIDs := got.GatewayIDs(), want.GatewayIDs()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("%s: gateway id count %d != %d", label, len(gotIDs), len(wantIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("%s: gateway id order differs at %d: %d != %d", label, i, gotIDs[i], wantIDs[i])
		}
	}
}

// testInstances samples one instance per topology family, seeded.
func testInstances(t *testing.T, seed uint64) map[string]*graph.Graph {
	t.Helper()
	rng := xrand.New(seed)
	out := map[string]*graph.Graph{
		"path":     graph.Path(40),
		"star":     graph.Star(30),
		"cycle":    graph.Cycle(25),
		"complete": graph.Complete(20),
		"empty":    graph.New(0),
		"single":   graph.New(1),
		"gnp":      randomConnectedGNP(60, 0.15, rng),
	}
	if inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(rng.Uint64()), 2000); err == nil {
		out["udg"] = inst.Graph
	}
	// Large enough to cross the par.Block threshold so the parallel
	// marking pass actually fans out.
	if inst, err := udg.Random(udg.Config{N: 700, Field: geom.Square(300), Radius: 30}, xrand.New(rng.Uint64())); err == nil {
		out["udg-sparse-large"] = inst.Graph
	}
	if inst, err := udg.RandomClustered(udg.PaperConfig(90),
		udg.ClusterConfig{Clusters: 4, Spread: 12}, xrand.New(rng.Uint64())); err == nil {
		out["clustered"] = inst.Graph
	}
	if inst, err := udg.RandomQuasi(udg.PaperQuasiConfig(90), xrand.New(rng.Uint64())); err == nil {
		out["quasi"] = inst.Graph
	}
	return out
}

func TestComputeParallelMatchesSequential(t *testing.T) {
	for name, g := range testInstances(t, 1109) {
		energy := randomEnergy(g.NumNodes(), xrand.New(uint64(g.NumNodes())+7))
		for _, p := range Policies {
			want, err := Compute(g, p, energy)
			if err != nil {
				t.Fatalf("%s/%v: sequential: %v", name, p, err)
			}
			for _, w := range workerCounts {
				got, err := ComputeParallel(g, p, energy, w)
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", name, p, w, err)
				}
				assertResultsIdentical(t, fmt.Sprintf("%s/%v/workers=%d", name, p, w), want, got)
			}
		}
	}
}

// TestComputeParallelProperty is the quick.Check sweep: seeded random
// UDG, clustered, and quasi instances (connected or not), every policy,
// workers=8 vs workers=1 vs Compute.
func TestComputeParallelProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 300 + rng.Intn(400) // always beyond the sequential cutoff
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			inst, err := udg.Random(udg.Config{
				N:      n,
				Field:  geom.Square(100 + rng.Float64()*300),
				Radius: 15 + rng.Float64()*25,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			g = inst.Graph
		case 1:
			inst, err := udg.RandomClustered(udg.PaperConfig(n),
				udg.ClusterConfig{Clusters: 2 + rng.Intn(5), Spread: 5 + rng.Float64()*20}, rng)
			if err != nil {
				t.Fatal(err)
			}
			g = inst.Graph
		default:
			cfg := udg.PaperQuasiConfig(n)
			cfg.PZone = rng.Float64()
			inst, err := udg.RandomQuasi(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			g = inst.Graph
		}
		energy := randomEnergy(n, rng)
		for _, p := range Policies {
			want, err := Compute(g, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 8} {
				got, err := ComputeParallel(g, p, energy, w)
				if err != nil {
					t.Fatal(err)
				}
				if !equalBools(want.Marked, got.Marked) || !equalBools(want.Gateway, got.Gateway) {
					t.Logf("seed=%d policy=%v workers=%d diverged", seed, p, w)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestApplyRulesParallelMatchesApplyRules pins the rule phase alone:
// identical gateway sets from the parallel entry points and the
// sequential sweep, including via the Into variants over dirty reused
// destination buffers (the pooled-handler pattern).
func TestApplyRulesParallelMatchesApplyRules(t *testing.T) {
	rng := xrand.New(42)
	dirty := make([]bool, 4096) // reused across cases, starts poisoned
	for i := range dirty {
		dirty[i] = true
	}
	for trial := 0; trial < 8; trial++ {
		n := 400 + rng.Intn(400)
		inst, err := udg.Random(udg.Config{N: n, Field: geom.Square(250), Radius: 25}, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.Graph
		marked := Mark(g)
		energy := randomEnergy(n, rng)
		for _, p := range Policies {
			want, err := ApplyRules(g, p, marked, energy)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := ApplyRulesParallel(g, p, marked, energy, w)
				if err != nil {
					t.Fatal(err)
				}
				if !equalBools(want, got) {
					t.Fatalf("trial %d policy %v workers %d: gateway sets differ", trial, p, w)
				}
			}
			dst := dirty[:n]
			if err := ApplyRulesParallelInto(g, p, marked, energy, 8, dst); err != nil {
				t.Fatal(err)
			}
			if !equalBools(want, dst) {
				t.Fatalf("trial %d policy %v: Into over dirty buffer differs", trial, p)
			}
			if err := ApplyRulesInto(g, p, marked, energy, dst); err != nil {
				t.Fatal(err)
			}
			if !equalBools(want, dst) {
				t.Fatalf("trial %d policy %v: sequential Into differs", trial, p)
			}
		}
	}
}

// TestMarkParallelMatchesMark pins the marking phase alone across worker
// counts and a dirty destination buffer.
func TestMarkParallelMatchesMark(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 6; trial++ {
		n := 300 + rng.Intn(500)
		inst, err := udg.Random(udg.Config{N: n, Field: geom.Square(200), Radius: 20}, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := Mark(inst.Graph)
		for _, w := range workerCounts {
			if got := MarkParallel(inst.Graph, w); !equalBools(want, got) {
				t.Fatalf("trial %d workers %d: marked sets differ", trial, w)
			}
		}
		dst := make([]bool, n)
		for i := range dst {
			dst[i] = true
		}
		MarkParallelInto(inst.Graph, dst, 4)
		if !equalBools(want, dst) {
			t.Fatalf("trial %d: MarkParallelInto over dirty buffer differs", trial)
		}
	}
}

// TestComputeParallelErrors pins the error contract: energy-needing
// policies reject short energy slices at every worker count.
func TestComputeParallelErrors(t *testing.T) {
	g := graph.Path(500)
	for _, w := range []int{1, 4} {
		if _, err := ComputeParallel(g, EL1, []float64{1, 2}, w); err == nil {
			t.Fatalf("workers=%d: want energy length error, got nil", w)
		}
		if _, err := ApplyRulesParallel(g, EL2, make([]bool, 500), nil, w); err == nil {
			t.Fatalf("workers=%d: want energy length error, got nil", w)
		}
	}
}
