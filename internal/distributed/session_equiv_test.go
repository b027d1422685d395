package distributed

import (
	"testing"
	"testing/quick"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// TestSessionIncrementalEquivalence is the incremental rule phase's
// soundness property: over seeded mobility-and-energy histories, a session
// using the dirty-frontier phase and Run, the full protocol, re-run on the
// current topology and energy after every batch must stay in lockstep —
// same epochs, same marker-change counts, same gateway vector after every
// batch — for every policy. Run under NR returns the markers, so the
// marker-change count is the number of hosts whose NR status moved.
func TestSessionIncrementalEquivalence(t *testing.T) {
	histories := 0
	run := func(p cds.Policy, g *graph.Graph, energy []float64) []bool {
		gw, _, err := Run(g, p, energy)
		if err != nil {
			t.Fatal(err)
		}
		return gw
	}
	prop := func(seed uint16, policyIdx uint8) bool {
		p := cds.Policies[int(policyIdx)%len(cds.Policies)]
		rng := xrand.New(xrand.Mix(uint64(seed), uint64(policyIdx)))
		inst, err := udg.RandomConnected(udg.PaperConfig(30), rng, 2000)
		if err != nil {
			return true // no connected instance at this seed; vacuous
		}
		histories++
		n := inst.Graph.NumNodes()
		energy := make([]float64, n)
		for i := range energy {
			energy[i] = float64(rng.IntRange(1, 10)) * 10
		}
		inc, err := NewSession(inst.Graph, p, energy)
		if err != nil {
			t.Fatal(err)
			return false
		}
		var epoch uint64
		marks := run(cds.NR, inst.Graph, nil)

		model := mobility.NewPaper()
		for step := 0; step < 6; step++ {
			// Drain some batteries between batches so the EL policies
			// exercise the pendingDirty seeding path.
			if step%2 == 1 {
				for i := range energy {
					if e := energy[i] - float64(rng.Intn(15)); e > 0 {
						energy[i] = e
					}
				}
				if err := inc.UpdateEnergy(energy); err != nil {
					return false
				}
				epoch++
			}
			changes := applyMobilityStep(inst, model, rng)
			ci, err := inc.ApplyChanges(changes)
			if err != nil {
				return false
			}
			epoch++
			fresh := run(cds.NR, inst.Graph, nil)
			co := 0
			for v := range fresh {
				if fresh[v] != marks[v] {
					co++
				}
			}
			marks = fresh
			if ci != co || inc.Epoch() != epoch {
				t.Logf("policy %v seed %d step %d: changed %d vs %d, epoch %d vs %d",
					p, seed, step, ci, co, inc.Epoch(), epoch)
				return false
			}
			gi, go_ := inc.Gateways(), run(p, inst.Graph, energy)
			for v := range gi {
				if gi[v] != go_[v] {
					t.Logf("policy %v seed %d step %d: node %d incremental=%v oracle=%v (frontier %d/%d)",
						p, seed, step, v, gi[v], go_[v], inc.LastFrontier(), n)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if histories == 0 {
		t.Fatal("property never exercised a history: instance generation failed for every seed")
	}
}

// TestSessionIncrementalFrontierIsLocal pins the perf claim behind the
// tentpole: on a large sparse topology, a single link toggle must
// re-evaluate a small neighborhood, not the network.
func TestSessionIncrementalFrontierIsLocal(t *testing.T) {
	inst, err := udg.RandomConnected(udg.PaperConfig(80), xrand.New(5), 2000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(inst.Graph, cds.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Toggle one existing edge down and back up; both frontiers must be a
	// small fraction of the 80-host population.
	var a, b graph.NodeID = -1, -1
	inst.Graph.Edges(func(u, v graph.NodeID) {
		if a < 0 {
			a, b = u, v
		}
	})
	for _, up := range []bool{false, true} {
		if _, err := s.ApplyChanges([]EdgeChange{{A: a, B: b, Up: up}}); err != nil {
			t.Fatal(err)
		}
		if f := s.LastFrontier(); f == 0 || f > s.NumNodes()/2 {
			t.Fatalf("up=%v: frontier %d of %d hosts, want small and nonzero", up, f, s.NumNodes())
		}
	}
}
