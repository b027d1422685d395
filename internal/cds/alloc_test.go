package cds

import (
	"testing"

	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// TestRulesAllocationContracts pins the allocations of the whole-graph
// rule pass on a paper-density instance: the pooled cdsd handlers call
// ApplyRulesParallelInto with one worker and a reused destination, and
// the simulator calls Compute once per interval.
func TestRulesAllocationContracts(t *testing.T) {
	inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(3), 2000)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	energy := randomEnergy(g.NumNodes(), xrand.New(5))
	marked := Mark(g)
	dst := make([]bool, g.NumNodes())
	for _, p := range Policies {
		// The priority order of ND, EL1 and EL2 is a closure over the
		// graph or the energy levels; ID's captures nothing.
		order := 1
		if p == NR || p == ID {
			order = 0
		}
		into := testing.AllocsPerRun(20, func() {
			if err := ApplyRulesParallelInto(g, p, marked, energy, 1, dst); err != nil {
				t.Fatal(err)
			}
		})
		if into > float64(order) {
			t.Errorf("%v: ApplyRulesParallelInto(workers=1) allocates %v per call, want <= %d", p, into, order)
		}
		// Compute adds the marking, the gateway vector and the Result.
		compute := testing.AllocsPerRun(20, func() {
			if _, err := Compute(g, p, energy); err != nil {
				t.Fatal(err)
			}
		})
		if compute > float64(3+order) {
			t.Errorf("%v: Compute allocates %v per call, want <= %d", p, compute, 3+order)
		}
	}
}
