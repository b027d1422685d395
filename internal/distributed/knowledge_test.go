package distributed

import (
	"slices"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// TestSessionKnowledgeMatchesGraph checks the invariant the Session's
// centralized mirrors rest on: after bootstrap and after every batch,
// every host's local knowledge agrees with the global graph and the
// mirrors. It also guards the alignment of nbrs and know, since an edit to
// one list without the same edit to the other shifts every later record.
// The history mixes mobility batches, one batch that takes a link down
// and back up, and an energy refresh.
func TestSessionKnowledgeMatchesGraph(t *testing.T) {
	for _, p := range cds.Policies {
		inst, err := udg.RandomConnected(udg.PaperConfig(100), xrand.New(21), 2000)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(23)
		energy := make([]float64, inst.Graph.NumNodes())
		for i := range energy {
			energy[i] = float64(rng.IntRange(1, 10)) * 10
		}
		s, err := NewSession(inst.Graph, p, energy)
		if err != nil {
			t.Fatal(err)
		}
		checkKnowledge(t, s, p, "bootstrap")

		model := mobility.NewPaper()
		events := 0
		for step := 0; step < 8; step++ {
			switch step {
			case 3:
				var a, b graph.NodeID = -1, -1
				s.g.Edges(func(u, v graph.NodeID) {
					if a < 0 {
						a, b = u, v
					}
				})
				batch := []EdgeChange{{A: a, B: b}, {A: a, B: b, Up: true}}
				if _, err := s.ApplyChanges(batch); err != nil {
					t.Fatal(err)
				}
				checkKnowledge(t, s, p, "link down and up")
			case 5:
				for i := range energy {
					if e := energy[i] - float64(rng.Intn(15)); e > 0 {
						energy[i] = e
					}
				}
				if err := s.UpdateEnergy(energy); err != nil {
					t.Fatal(err)
				}
				checkKnowledge(t, s, p, "energy refresh")
			}
			changes := applyMobilityStep(inst, model, rng)
			events += len(changes)
			if _, err := s.ApplyChanges(changes); err != nil {
				t.Fatal(err)
			}
			checkKnowledge(t, s, p, "mobility batch")
		}
		if events == 0 {
			t.Fatalf("%v: the mobility history changed no link", p)
		}
	}
}

// checkKnowledge compares every host's local state with the session's
// graph and mirrors.
func checkKnowledge(t *testing.T, s *Session, p cds.Policy, when string) {
	t.Helper()
	for v, nd := range s.nodes {
		id := graph.NodeID(v)
		if !slices.Equal(nd.nbrs, s.g.Neighbors(id)) {
			t.Fatalf("%v after %s: host %d knows neighbours %v, graph has %v", p, when, v, nd.nbrs, s.g.Neighbors(id))
		}
		if len(nd.know) != len(nd.nbrs) {
			t.Fatalf("%v after %s: host %d has %d records for %d neighbours", p, when, v, len(nd.know), len(nd.nbrs))
		}
		for i, u := range nd.nbrs {
			k := nd.know[i]
			if !slices.Equal(k.set, s.g.Neighbors(u)) {
				t.Fatalf("%v after %s: host %d holds N(%d) = %v, graph has %v", p, when, v, u, k.set, s.g.Neighbors(u))
			}
			if k.energy != s.energyArr[u] {
				t.Fatalf("%v after %s: host %d holds el(%d) = %v, session has %v", p, when, v, u, k.energy, s.energyArr[u])
			}
			if !k.markerHeard || k.marker != s.markerArr[u] {
				t.Fatalf("%v after %s: host %d holds m(%d) = %v (heard %v), session has %v", p, when, v, u, k.marker, k.markerHeard, s.markerArr[u])
			}
		}
		if nd.marker != s.markerArr[v] {
			t.Fatalf("%v after %s: host %d has marker %v, mirror %v", p, when, v, nd.marker, s.markerArr[v])
		}
		if nd.gateway != s.gw2[v] {
			t.Fatalf("%v after %s: host %d has gateway %v, mirror %v", p, when, v, nd.gateway, s.gw2[v])
		}
	}
}

// TestReceiveFromNonNeighbourPanics pins the delivery invariant: a payload
// from a host outside nbrs is a bug, and the receiver panics instead of
// adding a record for the sender.
func TestReceiveFromNonNeighbourPanics(t *testing.T) {
	nd := newNode(0, 0)
	nd.receive(Message{From: 2, Kind: Hello})
	nd.receive(Message{From: 2, Kind: Status, Marked: true})
	defer func() {
		if recover() == nil {
			t.Fatal("a NeighborList from non-neighbour 1 did not panic")
		}
		if !slices.Equal(nd.nbrs, []graph.NodeID{2}) || len(nd.know) != 1 || !nd.know[0].marker {
			t.Fatalf("the rejected delivery changed the host: nbrs %v, know %v", nd.nbrs, nd.know)
		}
	}()
	nd.receive(Message{From: 1, Kind: NeighborList, Neighbors: []graph.NodeID{0}})
}

// TestGatewayResetOnUnheardMarker pins how a rule-phase reset treats a
// neighbour whose Status never arrived but whose StatusUpdate did: the
// reliable host's beginRulePhase keeps that neighbour's gateway status,
// and the hardened epochReset clears it.
func TestGatewayResetOnUnheardMarker(t *testing.T) {
	learn := func(nd *node) {
		nd.receive(Message{From: 1, Kind: Hello})
		nd.receive(Message{From: 2, Kind: Hello})
		nd.receive(Message{From: 1, Kind: Status, Marked: false})
		nd.receive(Message{From: 1, Kind: StatusUpdate, Marked: true})
		nd.receive(Message{From: 2, Kind: StatusUpdate, Marked: true})
	}
	nd := newNode(0, 0)
	learn(nd)
	nd.beginRulePhase()
	if nd.know[0].gateway || !nd.know[1].gateway {
		t.Fatalf("beginRulePhase: gateways %v/%v, want false (heard marker) / true (kept)", nd.know[0].gateway, nd.know[1].gateway)
	}

	h := newHnode(0, 0)
	learn(&h.node)
	h.epochReset(1, newHruntime(graph.New(3), cds.ID, HardenedConfig{}.withDefaults()))
	if h.know[0].gateway || h.know[1].gateway {
		t.Fatalf("epochReset: gateways %v/%v, want both false", h.know[0].gateway, h.know[1].gateway)
	}
}
