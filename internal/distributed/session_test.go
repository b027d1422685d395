package distributed

import (
	"testing"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// applyMobilityStep moves hosts per the paper's model, diffs the unit-disk
// topology, and returns the link events.
func applyMobilityStep(inst *udg.Instance, m mobility.Model, rng *xrand.RNG) []EdgeChange {
	old := inst.Graph.Clone()
	m.Step(inst.Positions, inst.Config.Field, rng)
	inst.Rebuild()
	var changes []EdgeChange
	old.Edges(func(u, v graph.NodeID) {
		if !inst.Graph.HasEdge(u, v) {
			changes = append(changes, EdgeChange{A: u, B: v, Up: false})
		}
	})
	inst.Graph.Edges(func(u, v graph.NodeID) {
		if !old.HasEdge(u, v) {
			changes = append(changes, EdgeChange{A: u, B: v, Up: true})
		}
	})
	return changes
}

// TestSessionBootstrapMatchesRun: a session's bootstrap is Run, costs
// included — the same gateways and the same Stats, field by field, for
// every policy with energies, on connected instances of several sizes.
func TestSessionBootstrapMatchesRun(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(100)
		g := connectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng.Uint64())
		for _, p := range cds.Policies {
			s, err := NewSession(g, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			want, st, err := Run(g, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			got := s.Gateways()
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("trial %d n=%d policy %v: bootstrap differs from Run at %d", trial, n, p, v)
				}
			}
			if s.Stats() != st {
				t.Fatalf("trial %d n=%d policy %v: bootstrap stats\n%+v\nRun stats\n%+v", trial, n, p, s.Stats(), st)
			}
		}
	}
}

func TestSessionTracksMobility(t *testing.T) {
	// The headline maintenance property: across many mobility steps the
	// session's gateway set equals a fresh centralized computation on the
	// current topology.
	inst, err := udg.RandomConnected(udg.PaperConfig(35), xrand.New(11), 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []cds.Policy{cds.ID, cds.ND} {
		// Deep-copy the instance for this policy's run.
		cp := *inst
		cp.Positions = append(cp.Positions[:0:0], inst.Positions...)
		cp.Graph = inst.Graph.Clone()

		s, err := NewSession(cp.Graph, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		model := mobility.NewPaper()
		rng := xrand.New(13)
		for step := 0; step < 25; step++ {
			changes := applyMobilityStep(&cp, model, rng)
			if _, err := s.ApplyChanges(changes); err != nil {
				t.Fatal(err)
			}
			if !graph.Equal(s.Graph(), cp.Graph) {
				t.Fatalf("policy %v step %d: session topology diverged", p, step)
			}
			want := cds.MustCompute(cp.Graph, p, nil)
			got := s.Gateways()
			for v := range got {
				if got[v] != want.Gateway[v] {
					t.Fatalf("policy %v step %d: node %d session=%v centralized=%v",
						p, step, v, got[v], want.Gateway[v])
				}
			}
		}
	}
}

func TestSessionEnergyPolicy(t *testing.T) {
	inst, err := udg.RandomConnected(udg.PaperConfig(30), xrand.New(17), 2000)
	if err != nil {
		t.Fatal(err)
	}
	energy := make([]float64, 30)
	for i := range energy {
		energy[i] = 100
	}
	s, err := NewSession(inst.Graph, cds.EL1, energy)
	if err != nil {
		t.Fatal(err)
	}
	// Change energies, push the update, verify against centralized.
	rng := xrand.New(19)
	for i := range energy {
		energy[i] = float64(rng.IntRange(1, 10)) * 10
	}
	if err := s.UpdateEnergy(energy); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyChanges(nil); err != nil {
		t.Fatal(err)
	}
	want := cds.MustCompute(inst.Graph, cds.EL1, energy)
	got := s.Gateways()
	for v := range got {
		if got[v] != want.Gateway[v] {
			t.Fatalf("node %d: session=%v centralized=%v", v, got[v], want.Gateway[v])
		}
	}
}

func TestSessionMaintenanceCheaperThanRerun(t *testing.T) {
	// Maintenance messaging must undercut re-running the full protocol
	// each interval.
	inst, err := udg.RandomConnected(udg.PaperConfig(50), xrand.New(23), 2000)
	if err != nil {
		t.Fatal(err)
	}
	cp := *inst
	cp.Positions = append(cp.Positions[:0:0], inst.Positions...)
	cp.Graph = inst.Graph.Clone()

	s, err := NewSession(cp.Graph, cds.ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	bootstrapMsgs := s.Stats().Messages

	model := mobility.NewPaper()
	rng := xrand.New(29)
	rerunMsgs := 0
	const steps = 10
	for step := 0; step < steps; step++ {
		changes := applyMobilityStep(&cp, model, rng)
		if _, err := s.ApplyChanges(changes); err != nil {
			t.Fatal(err)
		}
		_, st, err := Run(cp.Graph, cds.ND, nil)
		if err != nil {
			t.Fatal(err)
		}
		rerunMsgs += st.Messages
	}
	maintMsgs := s.Stats().Messages - bootstrapMsgs
	if maintMsgs >= rerunMsgs {
		t.Fatalf("maintenance %d messages not cheaper than rerun %d", maintMsgs, rerunMsgs)
	}
	t.Logf("maintenance %d vs full rerun %d messages over %d steps", maintMsgs, rerunMsgs, steps)
}

func TestSessionRejectsBadChanges(t *testing.T) {
	s, err := NewSession(graph.Path(4), cds.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyChanges([]EdgeChange{{A: 1, B: 1, Up: true}}); err == nil {
		t.Fatal("self link accepted")
	}
	if _, err := s.ApplyChanges([]EdgeChange{{A: 0, B: 9, Up: true}}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestSessionIdempotentChanges(t *testing.T) {
	s, err := NewSession(graph.Path(4), cds.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Adding an existing link or removing a missing one is a no-op.
	if _, err := s.ApplyChanges([]EdgeChange{{A: 0, B: 1, Up: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyChanges([]EdgeChange{{A: 0, B: 3, Up: false}}); err != nil {
		t.Fatal(err)
	}
	want := cds.MustCompute(graph.Path(4), cds.ID, nil)
	got := s.Gateways()
	for v := range got {
		if got[v] != want.Gateway[v] {
			t.Fatalf("no-op changes perturbed the session at %d", v)
		}
	}
}

func TestSessionEnergyValidation(t *testing.T) {
	if _, err := NewSession(graph.Path(4), cds.EL1, nil); err == nil {
		t.Fatal("EL1 session without energy accepted")
	}
	s, err := NewSession(graph.Path(4), cds.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateEnergy([]float64{1}); err == nil {
		t.Fatal("short energy accepted")
	}
}

func TestExhaustiveSessionTracksEveryEdgeToggle(t *testing.T) {
	// For every 5-vertex graph and every possible single-link event, the
	// maintenance session must end up exactly equal to a fresh centralized
	// computation on the mutated topology. Proven by enumeration at this
	// size (1024 graphs x 10 toggles x 2 policies).
	pairs := [][2]graph.NodeID{}
	for u := graph.NodeID(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			pairs = append(pairs, [2]graph.NodeID{u, v})
		}
	}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		base := graph.New(5)
		for i, e := range pairs {
			if mask&(1<<i) != 0 {
				base.AddEdge(e[0], e[1])
			}
		}
		for _, p := range []cds.Policy{cds.ID, cds.ND} {
			for _, e := range pairs {
				s, err := NewSession(base, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				mutated := base.Clone()
				up := !mutated.HasEdge(e[0], e[1])
				if up {
					mutated.AddEdge(e[0], e[1])
				} else {
					mutated.RemoveEdge(e[0], e[1])
				}
				if _, err := s.ApplyChanges([]EdgeChange{{A: e[0], B: e[1], Up: up}}); err != nil {
					t.Fatal(err)
				}
				want := cds.MustCompute(mutated, p, nil)
				got := s.Gateways()
				for v := range got {
					if got[v] != want.Gateway[v] {
						t.Fatalf("mask %d policy %v toggle %v-%v up=%v: node %d differs",
							mask, p, e[0], e[1], up, v)
					}
				}
			}
		}
	}
}
