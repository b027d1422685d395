package distributed

import (
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/graph"
)

// Run executes the full protocol over the radio topology g under the given
// pruning policy and returns the final gateway assignment plus cost
// statistics. energy is required for EL1/EL2 (indexed by node id) and may
// be nil otherwise.
//
// Protocol phases (synchronous rounds):
//
//	round 1  — HELLO: every host announces itself; receivers learn N(v).
//	round 2  — NEIGHBOR-LIST: every host broadcasts N(v) and its energy
//	           level; receivers assemble distance-2 knowledge.
//	round 3  — STATUS: every host computes its marker from step 3 of the
//	           marking process and broadcasts it.
//	rules    — 2·n ID-ordered slots (first a Rule-1 sweep, then a Rule-2
//	           sweep). In its slot a marked host evaluates the rule from
//	           current local knowledge; if it unmarks, it broadcasts a
//	           STATUS-UPDATE that neighbors absorb before the next slot.
//	           Slots of unmarked hosts are collapsed (no transmission, no
//	           round cost) — the schedule only charges rounds where a
//	           decision could change state.
func Run(g *graph.Graph, p cds.Policy, energy []float64) ([]bool, Stats, error) {
	n := g.NumNodes()
	if p.NeedsEnergy() && len(energy) != n {
		return nil, Stats{}, fmt.Errorf("distributed: policy %v needs energy for all %d nodes, got %d", p, n, len(energy))
	}
	nodes := make([]*node, n)
	for v := 0; v < n; v++ {
		var e float64
		if len(energy) == n {
			e = energy[v]
		}
		nodes[v] = newNode(graph.NodeID(v), e)
	}
	nw := newNetwork(g)

	// Round 1: HELLO.
	for _, nd := range nodes {
		nw.broadcast(Message{From: nd.id, Kind: Hello})
	}
	nw.deliver(nodes)

	// Round 2: NEIGHBOR-LIST (+ energy piggyback).
	for _, nd := range nodes {
		nw.broadcast(Message{From: nd.id, Kind: NeighborList, Neighbors: nd.nbrs, Energy: nd.energy})
	}
	nw.deliver(nodes)

	// Round 3: marking + STATUS broadcast.
	for _, nd := range nodes {
		nd.computeMarker()
		nw.broadcast(Message{From: nd.id, Kind: Status, Marked: nd.marker})
	}
	nw.deliver(nodes)

	runRulePhase(nw, nodes, p)

	gateway := make([]bool, n)
	for v, nd := range nodes {
		gateway[v] = nd.gateway
	}
	return gateway, nw.stats, nil
}

// runRulePhase resets each host's working gateway state from the markers
// and runs the two rule sweeps in ID-ordered slots. For NR the gateway
// state is simply the markers.
func runRulePhase(nw *network, nodes []*node, p cds.Policy) {
	for _, nd := range nodes {
		nd.beginRulePhase()
	}
	if p == cds.NR {
		return
	}
	sweep := func(try func(*node) bool) {
		for _, nd := range nodes {
			if !nd.gateway {
				continue
			}
			if try(nd) {
				nw.broadcast(Message{From: nd.id, Kind: StatusUpdate, Marked: false})
				nw.deliver(nodes)
				nw.stats.StatusChanges++
			}
		}
	}
	sweep(func(nd *node) bool { return nd.tryRule1(p) })
	sweep(func(nd *node) bool { return nd.tryRule2(p) })
}
