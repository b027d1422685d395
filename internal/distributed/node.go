package distributed

import (
	"fmt"
	"slices"

	"pacds/internal/cds"
	"pacds/internal/graph"
)

// node is one host's local state. Everything in here was either configured
// at the host (id, energy) or learned from received messages; the protocol
// never reads the global graph on a node's behalf.
type node struct {
	id     graph.NodeID
	energy float64

	// nbrs is N(v), learned from Hello (or the link layer), sorted. know[i]
	// is what the host has learned about nbrs[i]; every edit to nbrs makes
	// the same edit to know, so the rule loops read a neighbour's record by
	// position and a delivery finds its sender by binary search.
	nbrs []graph.NodeID
	know []nbrKnow

	// marker is the marking-process result m(v); it persists across
	// maintenance intervals. gateway is the post-rule status, reset to
	// marker at the start of each rule phase.
	marker  bool
	gateway bool
}

// nbrKnow is one host's knowledge of a neighbour u. A neighbour the host
// has not heard from yet has the zero record: no set, energy 0, no marker
// and not a gateway.
type nbrKnow struct {
	set    []graph.NodeID // N(u) from NeighborList, sorted; aliases the sender's list
	energy float64        // el(u) from NeighborList
	// markerHeard records that a Status from u arrived since u became a
	// neighbour; only then does marker hold m(u). gateway is u's working
	// status in the rule phase: reset from marker, then updated by
	// StatusUpdate broadcasts.
	markerHeard bool
	marker      bool
	gateway     bool
}

func newNode(id graph.NodeID, energy float64) *node {
	return &node{id: id, energy: energy}
}

// addNeighbor makes u a neighbour with an empty record unless it already
// is one, and returns u's position in nbrs and whether it was added.
func (n *node) addNeighbor(u graph.NodeID) (int, bool) {
	i, found := slices.BinarySearch(n.nbrs, u)
	if !found {
		n.nbrs = slices.Insert(n.nbrs, i, u)
		n.know = slices.Insert(n.know, i, nbrKnow{})
	}
	return i, !found
}

// removeNeighbor drops u and its record, if u is a neighbour.
func (n *node) removeNeighbor(u graph.NodeID) {
	if i, found := slices.BinarySearch(n.nbrs, u); found {
		n.nbrs = slices.Delete(n.nbrs, i, i+1)
		n.know = slices.Delete(n.know, i, i+1)
	}
}

// receive handles one delivered message. The radio delivers only along
// graph edges and nbrs mirrors the graph, so every sender of a payload is
// already a neighbour; a sender outside nbrs can only be a bug, and
// receive panics rather than invent a record for it.
func (n *node) receive(m Message) {
	if m.Kind == Hello {
		n.addNeighbor(m.From)
		return
	}
	i, found := slices.BinarySearch(n.nbrs, m.From)
	if !found {
		panic(fmt.Sprintf("distributed: host %d received %v from non-neighbour %d", n.id, m.Kind, m.From))
	}
	k := &n.know[i]
	switch m.Kind {
	case NeighborList:
		k.set, k.energy = m.Neighbors, m.Energy
	case Status:
		k.markerHeard, k.marker = true, m.Marked
	case StatusUpdate:
		k.gateway = m.Marked
	}
}

func contains(sorted []graph.NodeID, v graph.NodeID) bool {
	_, found := slices.BinarySearch(sorted, v)
	return found
}

// computeMarker runs marking step 3 locally: marked iff two neighbors are
// not connected to each other.
func (n *node) computeMarker() {
	n.marker = false
	for i := 0; i < len(n.nbrs); i++ {
		for j := i + 1; j < len(n.nbrs); j++ {
			if !contains(n.know[i].set, n.nbrs[j]) {
				n.marker = true
				return
			}
		}
	}
}

// beginRulePhase resets the working gateway state from the markers, for
// self and for every neighbour whose marker was heard; a neighbour whose
// marker was not heard keeps its gateway status.
func (n *node) beginRulePhase() {
	n.gateway = n.marker
	for i := range n.know {
		if k := &n.know[i]; k.markerHeard {
			k.gateway = k.marker
		}
	}
}

// below reports whether the host ranks below its neighbour nbrs[i] in the
// policy's priority order, evaluated from local knowledge.
func (n *node) below(p cds.Policy, i int) bool {
	v, u, k := n.id, n.nbrs[i], &n.know[i]
	switch p {
	case cds.ID:
		return v < u
	case cds.ND:
		dv, du := len(n.nbrs), len(k.set)
		if dv != du {
			return dv < du
		}
		return v < u
	case cds.EL1:
		if n.energy != k.energy {
			return n.energy < k.energy
		}
		return v < u
	case cds.EL2:
		if n.energy != k.energy {
			return n.energy < k.energy
		}
		dv, du := len(n.nbrs), len(k.set)
		if dv != du {
			return dv < du
		}
		return v < u
	default:
		return false
	}
}

// closedSubsetSelf reports whether N[self] ⊆ N[u] for the neighbour
// u = nbrs[i], judged locally: self ∈ N[u] because u is a neighbour, so
// every other neighbour of self must be in N(u).
func (n *node) closedSubsetSelf(i int) bool {
	nu := n.know[i].set
	for j, x := range n.nbrs {
		if j != i && !contains(nu, x) {
			return false
		}
	}
	return true
}

// subsetUnion reports whether a ⊆ b ∪ c for sorted neighbour sets.
func subsetUnion(a, b, c []graph.NodeID) bool {
	for _, x := range a {
		if !contains(b, x) && !contains(c, x) {
			return false
		}
	}
	return true
}

// rule1Applies evaluates the policy's Rule 1 template locally as a pure
// predicate: it reports whether the node's slot fires without changing any
// state. tryRule1 commits the unmark for the idealized sweep; the hardened
// protocol keeps the decision tentative until every neighbor ACKs.
func (n *node) rule1Applies(p cds.Policy) bool {
	if !n.gateway {
		return false
	}
	for i := range n.nbrs {
		if !n.know[i].gateway {
			continue
		}
		if n.below(p, i) && n.closedSubsetSelf(i) {
			return true
		}
	}
	return false
}

// tryRule1 runs Rule 1 in the node's slot; reports whether the node
// unmarked itself.
func (n *node) tryRule1(p cds.Policy) bool {
	if !n.rule1Applies(p) {
		return false
	}
	n.gateway = false
	return true
}

// rule2Applies evaluates the policy's Rule 2 locally as a pure predicate
// (see rule1Applies).
func (n *node) rule2Applies(p cds.Policy) bool {
	if !n.gateway {
		return false
	}
	for i := 0; i < len(n.nbrs); i++ {
		if !n.know[i].gateway {
			continue
		}
		if p == cds.ID && n.nbrs[i] < n.id {
			continue
		}
		for j := i + 1; j < len(n.nbrs); j++ {
			if !n.know[j].gateway {
				continue
			}
			if p == cds.ID {
				if n.nbrs[j] < n.id {
					continue
				}
				if subsetUnion(n.nbrs, n.know[i].set, n.know[j].set) {
					return true
				}
				continue
			}
			if n.rule2Covered(p, i, j) {
				return true
			}
		}
	}
	return false
}

// tryRule2 runs Rule 2 in the node's slot; reports whether the node
// unmarked itself.
func (n *node) tryRule2(p cds.Policy) bool {
	if !n.rule2Applies(p) {
		return false
	}
	n.gateway = false
	return true
}

// rule2Covered is the three-case analysis of Rules 2a/2b/2b' for the
// neighbours u = nbrs[i] and w = nbrs[j], evaluated from local knowledge
// (self's set plus both neighbors' sets).
func (n *node) rule2Covered(p cds.Policy, i, j int) bool {
	nv, nu, nw := n.nbrs, n.know[i].set, n.know[j].set
	if !subsetUnion(nv, nu, nw) {
		return false
	}
	cu := subsetUnion(nu, nv, nw)
	cw := subsetUnion(nw, nu, nv)
	switch {
	case !cu && !cw:
		return true
	case cu && !cw:
		return n.below(p, i)
	case !cu && cw:
		return n.below(p, j)
	default:
		return n.below(p, i) && n.below(p, j)
	}
}
