package cds

import (
	"testing"

	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// Property tests: over many random connected topologies, every policy must
// produce a connected dominating set (paper Properties 1 and 2 plus the
// per-rule preservation claims), and the marking output must satisfy
// Property 3.

func randomConnectedUDG(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	inst, err := udg.RandomConnected(udg.PaperConfig(n), xrand.New(seed), 2000)
	if err != nil {
		t.Skipf("no connected instance for n=%d seed=%d: %v", n, seed, err)
	}
	return inst.Graph
}

// randomConnectedGNP samples Erdős–Rényi graphs conditioned on
// connectivity, to exercise topologies unit-disk graphs cannot produce
// (e.g. high-girth expanders).
func randomConnectedGNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	for {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.AddEdge(graph.NodeID(u), graph.NodeID(v))
				}
			}
		}
		if g.IsConnected() {
			return g
		}
	}
}

func randomEnergy(n int, rng *xrand.RNG) []float64 {
	el := make([]float64, n)
	for i := range el {
		// Discrete levels as in the paper, including exact ties.
		el[i] = float64(rng.IntRange(1, 10)) * 10
	}
	return el
}

func TestAllPoliciesPreserveCDSOnUDG(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(96)
		g := randomConnectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng)
		for _, p := range Policies {
			r, err := Compute(g, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCDS(g, r.Gateway); err != nil {
				t.Fatalf("trial %d n=%d policy %v: %v", trial, n, p, err)
			}
		}
	}
}

func TestAllPoliciesPreserveCDSOnGNP(t *testing.T) {
	rng := xrand.New(777)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(40)
		p := 0.08 + rng.Float64()*0.5
		g := randomConnectedGNP(n, p, rng)
		energy := randomEnergy(n, rng)
		for _, pol := range Policies {
			r, err := Compute(g, pol, energy)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCDS(g, r.Gateway); err != nil {
				t.Fatalf("trial %d n=%d p=%.2f policy %v: %v", trial, n, p, pol, err)
			}
		}
	}
}

func TestMarkingProperty3OnRandomGraphs(t *testing.T) {
	rng := xrand.New(555)
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(45)
		g := randomConnectedGNP(n, 0.15+rng.Float64()*0.3, rng)
		if err := VerifyProperty3(g, Mark(g)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRulesNeverGrowTheSet(t *testing.T) {
	rng := xrand.New(31337)
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(60)
		g := randomConnectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng)
		marked := Mark(g)
		base := CountGateways(marked)
		for _, p := range Policies {
			gw, err := ApplyRules(g, p, marked, energy)
			if err != nil {
				t.Fatal(err)
			}
			for v := range gw {
				if gw[v] && !marked[v] {
					t.Fatalf("policy %v marked node %d that the marking process left unmarked", p, v)
				}
			}
			if CountGateways(gw) > base {
				t.Fatalf("policy %v grew the gateway set", p)
			}
		}
	}
}

func TestNDProducesSmallestOrEqualSets(t *testing.T) {
	// The paper's Figure 10 finding: ND and EL2 yield the smallest CDS on
	// average. Check the aggregate tendency (not per-instance dominance,
	// which does not hold pointwise).
	rng := xrand.New(99)
	sum := map[Policy]int{}
	trials := 40
	for trial := 0; trial < trials; trial++ {
		g := randomConnectedUDG(t, 60, rng.Uint64())
		energy := randomEnergy(60, rng)
		for _, p := range Policies {
			r, err := Compute(g, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			sum[p] += r.NumGateways()
		}
	}
	if sum[ND] >= sum[NR] {
		t.Errorf("ND (%d) should shrink the set vs NR (%d)", sum[ND], sum[NR])
	}
	if sum[ID] >= sum[NR] {
		t.Errorf("ID (%d) should shrink the set vs NR (%d)", sum[ID], sum[NR])
	}
	if sum[ND] > sum[ID] {
		t.Errorf("ND (%d) should be no larger than ID (%d) on average", sum[ND], sum[ID])
	}
}

func TestUniformEnergyGatewayCounts(t *testing.T) {
	// The paper's Figure 10 setting: ten connected paper-density instances
	// of 30 hosts, every host at energy 100. With uniform energy EL2
	// coincides with ND per instance: both use the same rule template and
	// the energy tie falls through to (nd, id). EL1 does NOT coincide with
	// ID — it shares the comparator but uses the generalized three-case
	// Rule 2, which prunes more aggressively than the original min-ID
	// Rule 2. And the rules shrink the marking output.
	rng := xrand.New(77)
	energy := make([]float64, 30)
	for i := range energy {
		energy[i] = 100
	}
	sum := map[Policy]int{}
	for trial := 0; trial < 10; trial++ {
		inst, err := udg.RandomConnected(udg.PaperConfig(30), rng, 5000)
		if err != nil {
			t.Fatal(err)
		}
		count := map[Policy]int{}
		for _, p := range Policies {
			r, err := Compute(inst.Graph, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			count[p] = r.NumGateways()
			sum[p] += count[p]
		}
		if count[EL2] != count[ND] {
			t.Errorf("trial %d: EL2 %d != ND %d under uniform energy", trial, count[EL2], count[ND])
		}
	}
	if sum[EL1] > sum[ID] {
		t.Errorf("EL1 total %d should not exceed ID total %d (its Rule 2 is strictly more aggressive)", sum[EL1], sum[ID])
	}
	if sum[ID] >= sum[NR] {
		t.Errorf("ID total %d should be below NR total %d", sum[ID], sum[NR])
	}
}

func TestRuleAblationConsistency(t *testing.T) {
	// Rule1-only and Rule2-only each individually preserve the CDS, and
	// the combined application removes at least as many nodes as either
	// alone never removes fewer than... (combined <= each single rule's
	// result size is NOT guaranteed pointwise; but combined must be a
	// subset of marked and each single-rule output a superset of combined
	// removals is not guaranteed either). We check only the invariants.
	rng := xrand.New(4242)
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedUDG(t, 50, rng.Uint64())
		energy := randomEnergy(50, rng)
		marked := Mark(g)
		for _, p := range []Policy{ID, ND, EL1, EL2} {
			r1, err := ApplyRule1Only(g, p, marked, energy)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCDS(g, r1); err != nil {
				t.Fatalf("policy %v rule1-only: %v", p, err)
			}
			r2, err := ApplyRule2Only(g, p, marked, energy)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCDS(g, r2); err != nil {
				t.Fatalf("policy %v rule2-only: %v", p, err)
			}
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	g := randomConnectedUDG(t, 70, 12345)
	energy := randomEnergy(70, xrand.New(1))
	for _, p := range Policies {
		a := MustCompute(g, p, energy)
		b := MustCompute(g, p, energy)
		for v := range a.Gateway {
			if a.Gateway[v] != b.Gateway[v] {
				t.Fatalf("policy %v nondeterministic at node %d", p, v)
			}
		}
	}
}

func TestDisconnectedGraphHandled(t *testing.T) {
	// Two disjoint paths: marking and rules are purely local, so each
	// component is handled independently and VerifyCDS checks per
	// component.
	g := graph.New(8)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	energy := make([]float64, 8)
	for i := range energy {
		energy[i] = 100
	}
	for _, p := range Policies {
		r := MustCompute(g, p, energy)
		if err := VerifyCDS(g, r.Gateway); err != nil {
			t.Fatalf("policy %v on disconnected graph: %v", p, err)
		}
	}
}

func TestCompleteGraphYieldsEmptyCDS(t *testing.T) {
	g := graph.Complete(10)
	for _, p := range Policies {
		r := MustCompute(g, p, make([]float64, 10))
		if r.NumGateways() != 0 {
			t.Fatalf("policy %v: complete graph produced %d gateways", p, r.NumGateways())
		}
		if err := VerifyCDS(g, r.Gateway); err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
	}
}

func TestVerifyCDSDetectsViolations(t *testing.T) {
	g := graph.Path(5)
	// Empty set on a non-complete connected graph: not dominating.
	if err := VerifyCDS(g, make([]bool, 5)); err == nil {
		t.Error("VerifyCDS accepted an empty set on P5")
	}
	// Disconnected gateway set {0, 4}: dominates nothing in the middle...
	// actually {1, 3} dominates all of P5 but is disconnected.
	if err := VerifyCDS(g, []bool{false, true, false, true, false}); err == nil {
		t.Error("VerifyCDS accepted a disconnected dominating set")
	}
	// Length mismatch.
	if err := VerifyCDS(g, make([]bool, 3)); err == nil {
		t.Error("VerifyCDS accepted wrong-length slice")
	}
}

func TestVerifyProperty3Detects(t *testing.T) {
	// On P5, claiming only node 2 marked breaks Property 3 for pair (0, 4).
	g := graph.Path(5)
	bad := []bool{false, false, true, false, false}
	if err := VerifyProperty3(g, bad); err == nil {
		t.Error("VerifyProperty3 accepted an inadequate marked set")
	}
	if err := VerifyProperty3(g, make([]bool, 4)); err == nil {
		t.Error("VerifyProperty3 accepted wrong-length slice")
	}
}

func TestAllPoliciesPreserveCDSOnQuasiUDG(t *testing.T) {
	// Quasi unit-disk graphs have non-monotone neighborhoods the ideal
	// disk cannot produce; the rules are purely graph-based and must
	// still yield a CDS.
	rng := xrand.New(4321)
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(60)
		inst, err := udg.RandomQuasiConnected(udg.PaperQuasiConfig(n), xrand.New(rng.Uint64()), 2000)
		if err != nil {
			t.Skipf("no connected quasi instance: %v", err)
		}
		energy := randomEnergy(n, rng)
		for _, p := range Policies {
			r, err := Compute(inst.Graph, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCDS(inst.Graph, r.Gateway); err != nil {
				t.Fatalf("trial %d policy %v: %v", trial, p, err)
			}
		}
		if err := VerifyProperty3(inst.Graph, Mark(inst.Graph)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
