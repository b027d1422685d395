package distributed

import (
	"slices"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/graph"
)

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
