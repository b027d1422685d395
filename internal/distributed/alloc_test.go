package distributed

import (
	"testing"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// TestSessionApplyChangesAllocFree pins the maintained rule phase's
// steady-state allocation contract on a paper-density instance: once warm,
// a batch allocates nothing, for every policy — both a full mobility batch
// and a localized link toggle whose status flips drive the worklist
// admissions.
func TestSessionApplyChangesAllocFree(t *testing.T) {
	for _, p := range cds.Policies {
		inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(9), 2000)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(11)
		energy := make([]float64, inst.Graph.NumNodes())
		for i := range energy {
			energy[i] = float64(rng.IntRange(1, 10)) * 10
		}
		s, err := NewSession(inst.Graph, p, energy)
		if err != nil {
			t.Fatal(err)
		}

		// A closed loop of mobility batches: steps forward, then their
		// inverses in reverse order, so cycling it replays the same states.
		model := mobility.NewPaper()
		var loop [][]EdgeChange
		for i := 0; i < 4; i++ {
			loop = append(loop, applyMobilityStep(inst, model, rng))
		}
		for i := len(loop) - 1; i >= 0; i-- {
			inv := make([]EdgeChange, len(loop[i]))
			for j, ch := range loop[i] {
				inv[j] = EdgeChange{A: ch.A, B: ch.B, Up: !ch.Up}
			}
			loop = append(loop, inv)
		}
		if got := batchAllocs(t, s, loop); got != 0 {
			t.Errorf("%v: mobility batch allocates %v per call, want 0", p, got)
		}

		// A single link whose toggle flips some host's status.
		toggle := flippingToggle(t, s)
		down := []EdgeChange{toggle}
		toggle.Up = !toggle.Up
		if got := batchAllocs(t, s, [][]EdgeChange{down, {toggle}}); got != 0 {
			t.Errorf("%v: link toggle allocates %v per call, want 0", p, got)
		}
	}
}

// batchAllocs applies the batches of loop in turn, once through to warm
// the session up and then under testing.AllocsPerRun, and returns the
// mean allocations per batch.
func batchAllocs(t *testing.T, s *Session, loop [][]EdgeChange) float64 {
	t.Helper()
	next := 0
	step := func() {
		if _, err := s.ApplyChanges(loop[next%len(loop)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range loop {
		step()
	}
	// One warm-up call plus whole cycles, so the session ends where it
	// started.
	return testing.AllocsPerRun(3*len(loop)-1, step)
}

// flippingToggle returns the removal of an existing link whose toggle
// changes some host's gateway status (any link under NR, which has no
// rules to flip), leaving the session as it was.
func flippingToggle(t *testing.T, s *Session) EdgeChange {
	t.Helper()
	var edges []EdgeChange
	s.g.Edges(func(u, v graph.NodeID) {
		edges = append(edges, EdgeChange{A: u, B: v})
	})
	for _, ch := range edges {
		before := s.Stats().StatusChanges
		if _, err := s.ApplyChanges([]EdgeChange{ch}); err != nil {
			t.Fatal(err)
		}
		flipped := s.Stats().StatusChanges != before
		if _, err := s.ApplyChanges([]EdgeChange{{A: ch.A, B: ch.B, Up: true}}); err != nil {
			t.Fatal(err)
		}
		if flipped || s.policy == cds.NR {
			return ch
		}
	}
	t.Fatal("no link toggle flips a gateway status")
	return EdgeChange{}
}
