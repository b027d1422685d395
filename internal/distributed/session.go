package distributed

import (
	"errors"
	"fmt"
	"slices"

	"pacds/internal/cds"
	"pacds/internal/graph"
)

// ErrStale reports that an input batch no longer matches the session's
// host population — a link event naming a host outside the session, or an
// energy snapshot with the wrong number of readings. These arise when the
// caller assembled the batch against an outdated topology snapshot; they
// are recoverable (re-snapshot via Graph and resubmit) and leave the
// session unchanged. Test with errors.Is(err, ErrStale); errors that do
// not match the sentinel (e.g. a self link) indicate caller bugs and are
// fatal.
var ErrStale = errors.New("distributed: stale session input")

// Session maintains a connected dominating set across topology changes
// with localized traffic AND localized computation — the paper's Section
// 2.2 claim made executable. After a full-protocol bootstrap, each
// maintenance interval costs only:
//
//   - one NeighborList broadcast per host whose link set changed (its
//     neighbors absorb the new 2-hop information);
//   - one Status broadcast per host whose MARKER actually changed (the
//     affected set of a link toggle is exactly the endpoints plus their
//     common neighbors);
//   - one StatusUpdate broadcast per host whose final gateway status
//     changed, delivered in a single round.
//
// The rule phase itself is incremental: instead of re-running every
// host's Rule-1/Rule-2 slot, only the dirty frontier — hosts whose slot
// inputs could have changed — is re-evaluated. The frontier is seeded
// from the changed links and markers (L ∪ N(L) ∪ ΔM ∪ N(ΔM), plus
// energy-dirty hosts for EL policies) and grows dynamically when a
// re-evaluated slot flips, exactly mirroring the cascades a full sweep
// would propagate. The result is provably identical to re-running the
// full sweep (see DESIGN.md §13 and the equivalence property test); a
// static host far from any change transmits nothing and computes nothing.
type Session struct {
	g      *graph.Graph
	nodes  []*node
	nw     *network
	policy cds.Policy
	// epoch counts state-mutating operations since bootstrap: every
	// successful ApplyChanges or UpdateEnergy increments it exactly once.
	// The bootstrapped state is epoch 0.
	epoch uint64

	// Centralized mirrors of the converged distributed state. The package's
	// invariant test (TestSessionKnowledgeMatchesGraph) establishes that
	// every host's local knowledge agrees with the global graph at
	// rule-phase time, so the frontier slots are evaluated against these
	// mirrors with the graph's bitset kernels and give the answers the
	// hosts' own rule evaluation would.
	rules     cds.Rules // policy rules bound to g and energyArr
	energyArr []float64 // mutated in place, never reallocated (rules' priority order closes over it)
	markerArr []bool    // m(v) after the latest marking recomputation
	gw1       []bool    // statuses after the latest Rule-1 sweep
	gw2       []bool    // final statuses; always equals the hosts' gateway flags

	// Batch-scoped scratch sets, epoch-stamped so a maintenance interval
	// allocates nothing in steady state.
	linkChanged  cds.Worklist // hosts whose own link set changed
	affected     cds.Worklist // hosts whose marker may change
	seed         cds.Worklist // dirty frontier: the Rule-1 worklist
	f2           cds.Worklist // Rule-2 worklist
	pendingDirty cds.Worklist // energy-dirty hosts awaiting the next rule phase

	lastFrontier int
	fullSweep    bool // test oracle: unconditional full sweep per interval
}

// EdgeChange is one link-layer event: link {A, B} appeared (Up) or
// disappeared.
type EdgeChange struct {
	A, B graph.NodeID
	Up   bool
}

// NewSession bootstraps a session with the full three-phase protocol plus
// the initial rule phase. energy is required for EL1/EL2.
func NewSession(g *graph.Graph, p cds.Policy, energy []float64) (*Session, error) {
	n := g.NumNodes()
	if p.NeedsEnergy() && len(energy) != n {
		return nil, fmt.Errorf("distributed: policy %v needs energy for all %d nodes, got %d", p, n, len(energy))
	}
	s := &Session{
		g:         g.Clone(),
		nodes:     make([]*node, n),
		policy:    p,
		energyArr: make([]float64, n),
		markerArr: make([]bool, n),
		gw1:       make([]bool, n),
		gw2:       make([]bool, n),
	}
	s.g.AutoBitset()
	copy(s.energyArr, energy)
	rules, err := cds.Bind(s.g, p, s.energyArr)
	if err != nil {
		return nil, err
	}
	s.rules = rules
	s.linkChanged.Init(n)
	s.affected.Init(n)
	s.seed.Init(n)
	s.f2.Init(n)
	s.pendingDirty.Init(n)
	s.nw = newNetwork(s.g)
	for v := 0; v < n; v++ {
		s.nodes[v] = newNode(graph.NodeID(v), s.energyArr[v])
	}
	// Bootstrap phases (identical to Run).
	for _, nd := range s.nodes {
		s.nw.broadcast(Message{From: nd.id, Kind: Hello})
	}
	s.nw.deliver(s.nodes)
	for _, nd := range s.nodes {
		s.nw.broadcast(Message{From: nd.id, Kind: NeighborList, Neighbors: nd.nbrs, Energy: nd.energy})
	}
	s.nw.deliver(s.nodes)
	for _, nd := range s.nodes {
		nd.computeMarker()
		s.markerArr[nd.id] = nd.marker
		s.nw.broadcast(Message{From: nd.id, Kind: Status, Marked: nd.marker})
	}
	s.nw.deliver(s.nodes)
	runRulePhaseRecord(s.nw, s.nodes, s.policy, s.gw1)
	for v, nd := range s.nodes {
		s.gw2[v] = nd.gateway
	}
	s.lastFrontier = n
	return s, nil
}

// Gateways returns the current gateway assignment.
func (s *Session) Gateways() []bool {
	return slices.Clone(s.gw2)
}

// Stats returns cumulative protocol costs since bootstrap.
func (s *Session) Stats() Stats { return s.nw.stats }

// Graph returns a snapshot of the session's current topology. The clone
// costs O(V+E); pollers that only need counts or the gateway assignment
// should use the cheap accessors (Epoch, NumNodes, NumGateways,
// GatewaysInto, EnergySnapshot) instead.
func (s *Session) Graph() *graph.Graph { return s.g.Clone() }

// Epoch returns the number of successful state mutations (ApplyChanges or
// UpdateEnergy calls) since bootstrap. It is monotonic: two snapshots with
// equal epochs describe identical session state.
func (s *Session) Epoch() uint64 { return s.epoch }

// NumNodes returns the (fixed) host population size without cloning.
func (s *Session) NumNodes() int { return len(s.nodes) }

// NumGateways counts current gateways without allocating.
func (s *Session) NumGateways() int {
	n := 0
	for _, gw := range s.gw2 {
		if gw {
			n++
		}
	}
	return n
}

// GatewaysInto writes the current gateway assignment into dst, growing it
// if needed, and returns the slice. Unlike Gateways it lets a poller reuse
// one buffer across reads instead of allocating per poll.
func (s *Session) GatewaysInto(dst []bool) []bool {
	if cap(dst) < len(s.nodes) {
		dst = make([]bool, len(s.nodes))
	}
	dst = dst[:len(s.nodes)]
	copy(dst, s.gw2)
	return dst
}

// EnergySnapshot returns a copy of every host's current energy level —
// O(V), no graph clone.
func (s *Session) EnergySnapshot() []float64 {
	out := make([]float64, len(s.nodes))
	for v, nd := range s.nodes {
		out[v] = nd.energy
	}
	return out
}

// LastFrontier returns the number of rule slots the most recent rule phase
// re-evaluated — the dirty-frontier size. After bootstrap (or on the
// full-sweep oracle path) it equals NumNodes; in steady state it tracks
// the size of the change's 2-hop neighborhood, not the network.
func (s *Session) LastFrontier() int { return s.lastFrontier }

// forceFullSweep reverts the session to the pre-incremental behavior — an
// unconditional full rule sweep every maintenance interval. It exists as
// the equivalence oracle for the incremental rule phase's property tests
// and is deliberately unexported.
func (s *Session) forceFullSweep() { s.fullSweep = true }

// UpdateEnergy refreshes the hosts' energy levels and broadcasts the new
// value for every host whose level actually changed (energy-aware policies
// need their neighbors' current levels; an unchanged level is already
// correctly cached at the neighbors). For EL1/EL2 the changed hosts and
// their neighbors are queued as dirty for the next rule phase;
// topology-keyed policies (ID, ND) never need this call.
func (s *Session) UpdateEnergy(energy []float64) error {
	if len(energy) != len(s.nodes) {
		return fmt.Errorf("%w: %d energy values for %d hosts", ErrStale, len(energy), len(s.nodes))
	}
	for v, nd := range s.nodes {
		if nd.energy == energy[v] {
			continue
		}
		nd.energy = energy[v]
		s.energyArr[v] = energy[v]
		s.nw.broadcast(Message{From: nd.id, Kind: NeighborList, Neighbors: nd.nbrs, Energy: nd.energy})
		if s.policy.NeedsEnergy() {
			// The priority order reads el() of a slot's neighbors, so a
			// changed level dirties the host and everyone adjacent to it.
			s.pendingDirty.Add(nd.id)
			for _, u := range s.g.Neighbors(nd.id) {
				s.pendingDirty.Add(u)
			}
		}
	}
	if len(s.nw.pending) > 0 {
		s.nw.deliver(s.nodes)
	}
	s.epoch++
	return nil
}

// ApplyChanges applies a batch of link events, propagates the localized
// updates, and re-runs the rule phase over the dirty frontier. It returns
// the number of hosts whose marker changed.
func (s *Session) ApplyChanges(changes []EdgeChange) (int, error) {
	// Validate the whole batch before touching any state, so a rejected
	// batch leaves the session unchanged (the ErrStale contract).
	for _, ch := range changes {
		if ch.A == ch.B {
			return 0, fmt.Errorf("distributed: self link %d", ch.A)
		}
		if int(ch.A) >= len(s.nodes) || int(ch.B) >= len(s.nodes) || ch.A < 0 || ch.B < 0 {
			return 0, fmt.Errorf("%w: link %d-%d out of range for %d hosts", ErrStale, ch.A, ch.B, len(s.nodes))
		}
	}
	// The set of hosts whose own link set changed, and the set whose
	// marker could change (endpoints ∪ common neighbors, computed before
	// and after each toggle — membership of the common-neighbor set is
	// unchanged by toggling {a, b} itself).
	s.linkChanged.Reset()
	s.affected.Reset()
	s.seed.Reset()
	for _, ch := range changes {
		if ch.Up {
			if s.g.HasEdge(ch.A, ch.B) {
				continue
			}
			s.g.AddEdge(ch.A, ch.B)
		} else {
			if !s.g.RemoveEdge(ch.A, ch.B) {
				continue
			}
		}
		s.linkChanged.Add(ch.A)
		s.linkChanged.Add(ch.B)
		s.affected.Add(ch.A)
		s.affected.Add(ch.B)
		s.g.ForEachCommonNeighbor(ch.A, ch.B, func(u graph.NodeID) {
			s.affected.Add(u)
		})
		// Link-layer beacon detection: the endpoints learn the change
		// directly.
		a, b := s.nodes[ch.A], s.nodes[ch.B]
		if ch.Up {
			a.addNeighbor(ch.B)
			b.addNeighbor(ch.A)
		} else {
			a.removeNeighbor(ch.B)
			b.removeNeighbor(ch.A)
		}
	}

	// Hosts with changed link sets broadcast their new neighbor lists.
	for _, v := range s.linkChanged.List() {
		nd := s.nodes[v]
		s.nw.broadcast(Message{From: nd.id, Kind: NeighborList, Neighbors: nd.nbrs, Energy: nd.energy})
	}
	if len(s.nw.pending) > 0 {
		s.nw.deliver(s.nodes)
	}

	// Affected hosts recompute their markers. A changed marker is
	// broadcast; hosts whose link set changed broadcast their marker
	// unconditionally, because a NEW neighbor has no stored marker for
	// them yet (in a real system the status rides on the beacon). A marker
	// flip dirties the flipped host and its readers — its neighbors.
	s.affected.Sort()
	changed := 0
	for _, v := range s.affected.List() {
		nd := s.nodes[v]
		old := nd.marker
		nd.computeMarker()
		s.markerArr[v] = nd.marker
		if nd.marker != old {
			changed++
			s.seed.Add(v)
			for _, u := range s.g.Neighbors(v) {
				s.seed.Add(u)
			}
		}
		if nd.marker != old || s.linkChanged.Has(v) {
			s.nw.broadcast(Message{From: nd.id, Kind: Status, Marked: nd.marker})
		}
	}
	if len(s.nw.pending) > 0 {
		s.nw.deliver(s.nodes)
	}

	// Seed the rule-phase frontier with every host whose slot inputs may
	// have changed: the rules read adjacency, degree, and energy only
	// within N[v], so changed links dirty their endpoints plus neighbors,
	// and energy updates queued the analogous set in pendingDirty.
	for _, v := range s.linkChanged.List() {
		s.seed.Add(v)
		for _, u := range s.g.Neighbors(v) {
			s.seed.Add(u)
		}
	}
	for _, v := range s.pendingDirty.List() {
		s.seed.Add(v)
	}
	s.pendingDirty.Reset()

	if s.fullSweep {
		runRulePhaseRecord(s.nw, s.nodes, s.policy, s.gw1)
		for v, nd := range s.nodes {
			s.gw2[v] = nd.gateway
		}
		s.lastFrontier = len(s.nodes)
	} else {
		s.incrementalRulePhase()
	}
	s.epoch++
	return changed, nil
}

// incrementalRulePhase re-decides the rule slots of the seeded dirty
// frontier through the rule engine (cds.Rules.Resweep, which grows it
// with the cascades a full ID-ordered sweep would propagate) and commits
// the resulting status flips to the hosts with one batched StatusUpdate
// round. The final gw1/gw2 arrays are identical to what runRulePhase
// would produce from the current markers; the property tests replay
// histories against the full-sweep oracle to check exactly this.
func (s *Session) incrementalRulePhase() {
	if s.policy == cds.NR {
		// No rules: a host's gateway status is its marker, with no
		// status-update traffic (matching the full phase, which only
		// resets local state for NR).
		for _, v := range s.seed.List() {
			nd := s.nodes[v]
			s.gw1[v] = nd.marker
			s.gw2[v] = nd.marker
			nd.gateway = nd.marker
		}
		s.lastFrontier = len(s.seed.List())
		return
	}
	s.rules.Resweep(s.markerArr, s.gw1, s.gw2, &s.seed, &s.f2)

	// Commit: one StatusUpdate per host whose final status changed,
	// delivered in a single round. (The bootstrap sweep pays one round per
	// unmark because its slot serialization is load-bearing; here the
	// final statuses are already decided, so the survivors batch.)
	for _, v := range s.f2.List() {
		nd := s.nodes[v]
		if nd.gateway == s.gw2[v] {
			continue
		}
		nd.gateway = s.gw2[v]
		s.nw.broadcast(Message{From: nd.id, Kind: StatusUpdate, Marked: nd.gateway})
		s.nw.stats.StatusChanges++
	}
	if len(s.nw.pending) > 0 {
		s.nw.deliver(s.nodes)
	}
	s.lastFrontier = len(s.f2.List())
}
