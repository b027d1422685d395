package cds

import (
	"testing"

	"pacds/internal/graph"
)

func TestPolicyString(t *testing.T) {
	wants := map[Policy]string{NR: "NR", ID: "ID", ND: "ND", EL1: "EL1", EL2: "EL2"}
	for p, want := range wants {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Policy(99).String() != "Policy(99)" {
		t.Error("unknown policy String() wrong")
	}
}

func TestByName(t *testing.T) {
	for _, p := range Policies {
		got, err := ByName(p.String())
		if err != nil || got != p {
			t.Errorf("ByName(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ByName("XX"); err == nil {
		t.Error("ByName(XX) succeeded")
	}
}

func TestNeedsEnergy(t *testing.T) {
	if NR.NeedsEnergy() || ID.NeedsEnergy() || ND.NeedsEnergy() {
		t.Error("non-energy policy claims to need energy")
	}
	if !EL1.NeedsEnergy() || !EL2.NeedsEnergy() {
		t.Error("energy policy does not claim to need energy")
	}
}

func TestComputeEnergyRequired(t *testing.T) {
	g := graph.Path(4)
	if _, err := Compute(g, EL1, nil); err == nil {
		t.Error("EL1 without energy accepted")
	}
	if _, err := Compute(g, EL2, []float64{1, 2}); err == nil {
		t.Error("EL2 with short energy accepted")
	}
	if _, err := Compute(g, ID, nil); err != nil {
		t.Errorf("ID with nil energy rejected: %v", err)
	}
}

// --- Rule 1 (ID) ---

// figure3aGraph: N[v] ⊂ N[u]. 0=v 1=u 2=a 3=b; v-u, v-a, u-a, u-b.
func figure3aGraph() *graph.Graph {
	return graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}})
}

func TestRule1IDFigure3a(t *testing.T) {
	g := figure3aGraph()
	// Both v(0) and u(1) marked in the snapshot; a and b not.
	snapshot := []bool{true, true, false, false}
	out, err := ApplyRules(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] {
		t.Error("v should be unmarked by Rule 1 (N[v] ⊆ N[u], id(v) < id(u))")
	}
	if !out[1] {
		t.Error("u must stay marked")
	}
}

func TestRule1IDHigherIDSurvives(t *testing.T) {
	// Same shape but v has the HIGHER id: Rule 1 does not fire for v, and u
	// (the covering node) is not covered by v, so both stay.
	// 3=v 0=u: v-u, v-a(1), u-a, u-b(2).
	g := graph.FromEdges(4, [][2]graph.NodeID{{3, 0}, {3, 1}, {0, 1}, {0, 2}})
	snapshot := []bool{true, false, false, true}
	out, err := ApplyRules(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[3] {
		t.Error("v (id 3) must survive: id(v) > id(u) blocks Rule 1")
	}
	if !out[0] {
		t.Error("u must survive")
	}
}

func TestRule1IDEqualNeighborhoods(t *testing.T) {
	// Figure 3(b): N[v] = N[u]; exactly the smaller-id node is removed.
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}})
	snapshot := []bool{true, true, false, false}
	out, err := ApplyRules(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] {
		t.Error("node 0 (smaller id) should be removed")
	}
	if !out[1] {
		t.Error("node 1 (larger id) must survive")
	}
}

// --- Rule 2 (ID) ---

// paperClusterGraph builds the 11-node fragment of the paper's worked
// example around nodes 1..11 (index 0 unused but present):
// N(2)={1,3,4,5,6,7,8,9}, N(4)={1,2,3,9,10,11}, N(9)={2,4,5,6,7,8,10}.
func paperClusterGraph() *graph.Graph {
	return graph.FromEdges(12, [][2]graph.NodeID{
		{2, 1}, {2, 3}, {2, 4}, {2, 5}, {2, 6}, {2, 7}, {2, 8}, {2, 9},
		{4, 1}, {4, 3}, {4, 9}, {4, 10}, {4, 11},
		{9, 5}, {9, 6}, {9, 7}, {9, 8}, {9, 10},
	})
}

func TestRule2IDPaperExample(t *testing.T) {
	// Paper Section 3.3: node 2 unmarks because N(2) ⊆ N(4) ∪ N(9) and 2
	// has the min ID among {2, 4, 9}.
	g := paperClusterGraph()
	snapshot := make([]bool, 12)
	snapshot[2], snapshot[4], snapshot[9] = true, true, true
	out, err := ApplyRule2Only(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[2] {
		t.Error("node 2 should be unmarked by Rule 2")
	}
	if !out[4] || !out[9] {
		t.Error("nodes 4 and 9 must stay marked")
	}
}

func TestRule2IDMinIDRequired(t *testing.T) {
	// Node 9 is also covered: N(9) ⊆ N(2) ∪ N(4), but id 9 is not the
	// minimum of {2, 4, 9}, so node 9 stays marked.
	g := paperClusterGraph()
	if !g.OpenSubsetOfUnion(9, 2, 4) {
		t.Fatal("test premise: N(9) ⊆ N(2) ∪ N(4)")
	}
	snapshot := make([]bool, 12)
	snapshot[2], snapshot[4], snapshot[9] = true, true, true
	out, err := ApplyRule2Only(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[9] {
		t.Error("node 9 must stay marked (not the min ID)")
	}
}

func TestRule2IDRequiresMarkedNeighbors(t *testing.T) {
	g := paperClusterGraph()
	// Node 4 unmarked in the snapshot: node 2 cannot use the pair (4, 9).
	snapshot := make([]bool, 12)
	snapshot[2], snapshot[9] = true, true
	out, err := ApplyRule2Only(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[2] {
		t.Error("node 2 must stay marked when neighbor 4 is not a gateway")
	}
}

// --- Rule 1a (ND) ---

func TestRule1aPaperTail(t *testing.T) {
	// Paper example: N[21] ⊆ N[22] and N[27] ⊆ N[22]; under ND both 21 and
	// 27 unmark (their degrees 3 < 7), whereas under ID node 27 would stay
	// (id 27 > id 22).
	// Build nodes 20..27 as indices 20..27 of a 28-node graph:
	// N(21) = {22,23,24}; N(22) = {20,21,23,24,25,26,27}; N(27) = {22,25,26}.
	g := graph.FromEdges(28, [][2]graph.NodeID{
		{21, 22}, {21, 23}, {21, 24},
		{22, 20}, {22, 23}, {22, 24}, {22, 25}, {22, 26}, {22, 27},
		{27, 25}, {27, 26},
	})
	snapshot := make([]bool, 28)
	snapshot[21], snapshot[22], snapshot[27] = true, true, true

	outND, err := ApplyRule1Only(g, ND, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outND[21] {
		t.Error("ND: node 21 should be unmarked (nd 3 < nd 7)")
	}
	if outND[27] {
		t.Error("ND: node 27 should be unmarked (nd 3 < nd 7)")
	}
	if !outND[22] {
		t.Error("ND: node 22 must stay")
	}

	outID, err := ApplyRule1Only(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outID[21] {
		t.Error("ID: node 21 should be unmarked (id 21 < 22)")
	}
	if !outID[27] {
		t.Error("ID: node 27 must stay marked (id 27 > 22)")
	}
}

func TestRule1NDTieFallsBackToID(t *testing.T) {
	// N[v] = N[u] with equal degrees: lower id is removed.
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}})
	snapshot := []bool{true, true, false, false}
	out, err := ApplyRule1Only(g, ND, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] || !out[1] {
		t.Errorf("ND tie: out = %v, want node 0 removed, node 1 kept", out[:2])
	}
}

// --- Rule 2a (ND) three-case analysis ---

func TestRule2aCase1Unconditional(t *testing.T) {
	// Paper: N(18) ⊆ N(11) ∪ N(20) with neither 11 nor 20 covered — node 18
	// unmarks regardless of degrees. Construct an equivalent shape:
	// v=2 covered by u=0, w=4; u has private neighbor 1; w has private
	// neighbor 5; chain 1-0-2-4-5 plus 0-4 forming coverage.
	g := graph.FromEdges(6, [][2]graph.NodeID{
		{1, 0}, {0, 2}, {2, 4}, {4, 5}, {0, 4}, {0, 3}, {4, 3},
	})
	// N(2) = {0,4}; N(0) = {1,2,3,4}; N(4) = {0,2,3,5}.
	// N(2) ⊆ N(0) ∪ N(4) ✓; N(0) ⊄ N(2) ∪ N(4) (1 private); N(4) ⊄ (5 private).
	snapshot := []bool{true, false, true, false, true, false}
	out, err := ApplyRule2Only(g, ND, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[2] {
		t.Error("case 1: node 2 should unmark unconditionally")
	}
	if !out[0] || !out[4] {
		t.Error("case 1: covering nodes must stay")
	}
	// Sanity: node 2 has the LARGEST degree-tie-free... it has degree 2 here;
	// give it the max id equivalence by checking the ID policy also removes
	// only when min id. Under ID, id(2) is min of {0,2,4}? No: 0 < 2. So ID
	// must NOT remove node 2.
	outID, err := ApplyRule2Only(g, ID, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !outID[2] {
		t.Error("ID: node 2 must stay (id 0 is smaller)")
	}
}

func TestRule2aCase2PriorityDecides(t *testing.T) {
	// v and u mutually covered, w not. v unmarks iff nd(v) < nd(u), with id
	// tie-break.
	// Shape: w=4 with private neighbor 5; v=0 and u=1 with N(v)={1,2,4},
	// N(u)={0,2,4}... let's make degrees differ: give u an extra neighbor
	// inside the covered region.
	// Nodes: 0=v, 1=u, 2 shared, 4=w, 5 private-to-w.
	// Edges: v-u, v-4, u-4, v-2, u-2, 4-5, u-5? No - keep N(u) covered.
	g := graph.FromEdges(6, [][2]graph.NodeID{
		{0, 1}, {0, 4}, {1, 4}, {0, 2}, {1, 2}, {1, 3}, {4, 3}, {4, 5},
	})
	// N(0)={1,2,4}; N(1)={0,2,3,4}; N(4)={0,1,3,5}.
	// N(0) ⊆ N(1) ∪ N(4)? {1,2,4}: 1∈N(4)✓, 2∈N(1)✓, 4∈N(1)✓ → yes.
	// N(1) ⊆ N(0) ∪ N(4)? {0,2,3,4}: 0∈N(4)✓, 2∈N(0)✓, 3∈N(4)✓, 4∈N(0)✓ → yes.
	// N(4) ⊆ N(0) ∪ N(1)? 5 ∉ → no.
	// So v=0 and u=1 mutually covered, w=4 not. nd(0)=3 < nd(1)=4: v unmarks.
	snapshot := []bool{true, true, false, false, true, false}
	out, err := ApplyRule2Only(g, ND, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] {
		t.Error("case 2: node 0 should unmark (nd 3 < nd 4)")
	}
	if !out[1] {
		t.Error("case 2: node 1 must stay (larger degree)")
	}
	if !out[4] {
		t.Error("case 2: uncovered node 4 must stay")
	}
}

func TestRule2aCase3StrictMinimum(t *testing.T) {
	// All three mutually covered: a triangle with a shared extra neighbor.
	// Nodes 0,1,2 form a triangle, node 3 adjacent to all three.
	// N(0)={1,2,3} ⊆ N(1)∪N(2) (1∈N(2),2∈N(1),3∈N(1)) etc. — fully symmetric.
	g := graph.FromEdges(4, [][2]graph.NodeID{
		{0, 1}, {0, 2}, {1, 2}, {3, 0}, {3, 1}, {3, 2},
	})
	snapshot := []bool{true, true, true, false}
	out, err := ApplyRule2Only(g, ND, snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Equal degrees (3,3,3): id tie-break removes only node 0.
	if out[0] {
		t.Error("case 3: node 0 (min id) should unmark")
	}
	if !out[1] || !out[2] {
		t.Errorf("case 3: only the strict minimum may unmark; got %v", out[:3])
	}
}

// --- EL rules ---

func TestRule1bEnergyDecides(t *testing.T) {
	// Figure 3(b) shape with N[v] = N[u]: the lower-ENERGY node is removed
	// even when it has the higher id.
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}})
	snapshot := []bool{true, true, false, false}
	energy := []float64{90, 40, 100, 100} // node 1 weaker
	out, err := ApplyRule1Only(g, EL1, snapshot, energy)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] {
		t.Error("EL1: node 1 (lower energy) should be removed")
	}
	if !out[0] {
		t.Error("EL1: node 0 (higher energy) must stay")
	}
}

func TestRule1bEnergyTieFallsBackToID(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}})
	snapshot := []bool{true, true, false, false}
	energy := []float64{70, 70, 100, 100}
	out, err := ApplyRule1Only(g, EL1, snapshot, energy)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] || !out[1] {
		t.Errorf("EL1 tie: got %v, want node 0 removed (smaller id)", out[:2])
	}
}

func TestRule1bPrimeTieFallsBackToND(t *testing.T) {
	// EL2 (Rule 1b'): energy tie broken by node degree before id.
	// Build N[v] ⊆ N[u] with nd(v) < nd(u) but id(v) > id(u), equal energy:
	// EL2 removes v; EL1 (id tie-break) keeps v.
	// 3=v, 0=u: v-u, v-1, u-1, u-2.
	g := graph.FromEdges(4, [][2]graph.NodeID{{3, 0}, {3, 1}, {0, 1}, {0, 2}})
	snapshot := []bool{true, false, false, true}
	energy := []float64{50, 100, 100, 50}

	out2, err := ApplyRule1Only(g, EL2, snapshot, energy)
	if err != nil {
		t.Fatal(err)
	}
	// nd(3)=2 < nd(0)=3 -> EL2 removes node 3.
	if out2[3] {
		t.Error("EL2: node 3 should be removed (energy tie, smaller degree)")
	}

	out1, err := ApplyRule1Only(g, EL1, snapshot, energy)
	if err != nil {
		t.Fatal(err)
	}
	if !out1[3] {
		t.Error("EL1: node 3 must stay (energy tie, id 3 > id 0)")
	}
}

func TestRule2bMinEnergyUnmarks(t *testing.T) {
	// Case-3 symmetric triangle + apex: minimum-energy node unmarks.
	g := graph.FromEdges(4, [][2]graph.NodeID{
		{0, 1}, {0, 2}, {1, 2}, {3, 0}, {3, 1}, {3, 2},
	})
	snapshot := []bool{true, true, true, false}
	energy := []float64{80, 20, 90, 100} // node 1 weakest
	out, err := ApplyRule2Only(g, EL1, snapshot, energy)
	if err != nil {
		t.Fatal(err)
	}
	if out[1] {
		t.Error("EL1: node 1 (min energy) should unmark")
	}
	if !out[0] || !out[2] {
		t.Errorf("EL1: higher-energy nodes must stay; got %v", out[:3])
	}
}

func TestComputeNRLeavesMarking(t *testing.T) {
	g := graph.Path(7)
	r := MustCompute(g, NR, nil)
	for v := range r.Marked {
		if r.Marked[v] != r.Gateway[v] {
			t.Fatal("NR changed markers")
		}
	}
}

func TestGatewaySubsetOfMarked(t *testing.T) {
	g := paperClusterGraph()
	energy := make([]float64, 12)
	for i := range energy {
		energy[i] = 100
	}
	for _, p := range Policies {
		r := MustCompute(g, p, energy)
		for v := range r.Gateway {
			if r.Gateway[v] && !r.Marked[v] {
				t.Errorf("%v: node %d gateway but not marked", p, v)
			}
		}
	}
}

func TestResultAccessors(t *testing.T) {
	g := graph.Path(5)
	r := MustCompute(g, ID, nil)
	ids := r.GatewayIDs()
	if len(ids) != r.NumGateways() {
		t.Fatalf("GatewayIDs length %d != NumGateways %d", len(ids), r.NumGateways())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("GatewayIDs not sorted")
		}
	}
}

func TestMustComputePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompute with missing energy did not panic")
		}
	}()
	MustCompute(graph.Path(3), EL1, nil)
}

// TestRuleEntryPointsCheckLength pins the one length check every public
// rule entry point shares: a marking shorter or longer than the graph
// panics with the same message, for every policy, instead of dying on an
// index or returning a gateway vector of the wrong length.
func TestRuleEntryPointsCheckLength(t *testing.T) {
	g := graph.Path(6)
	n := g.NumNodes()
	order := make([]graph.NodeID, n)
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	energy := make([]float64, n)
	entries := map[string]func(Policy, []bool){
		"ApplyRules":         func(p Policy, m []bool) { _, _ = ApplyRules(g, p, m, energy) },
		"ApplyRule1Only":     func(p Policy, m []bool) { _, _ = ApplyRule1Only(g, p, m, energy) },
		"ApplyRule2Only":     func(p Policy, m []bool) { _, _ = ApplyRule2Only(g, p, m, energy) },
		"ApplyRulesOrdered":  func(p Policy, m []bool) { _, _ = ApplyRulesOrdered(g, p, m, energy, order) },
		"ApplyRuleK":         func(p Policy, m []bool) { _, _ = ApplyRuleK(g, p, m, energy) },
		"ApplyRulesFixpoint": func(p Policy, m []bool) { _, _, _ = ApplyRulesFixpoint(g, p, m, energy) },
		"ApplyRulesParallel": func(p Policy, m []bool) { _, _ = ApplyRulesParallel(g, p, m, energy, 1) },
		"ApplyRulesParallelInto": func(p Policy, m []bool) {
			_ = ApplyRulesParallelInto(g, p, m, energy, 1, make([]bool, n))
		},
	}
	for name, call := range entries {
		for _, size := range []int{n - 1, n + 1} {
			for _, p := range Policies {
				func() {
					defer func() {
						if got := recover(); got != "cds: marked slice length mismatch" {
							t.Errorf("%s(%v) with %d markers for %d nodes: recovered %v", name, p, size, n, got)
						}
					}()
					call(p, make([]bool, size))
				}()
			}
		}
	}
}
