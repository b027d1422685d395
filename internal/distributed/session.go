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
//
// A session does not simulate its hosts. It holds the topology once, in
// its graph, and computes each host's marker and rule slots from it: what
// Run's hosts decide from the knowledge their messages carry. Stats count
// the broadcasts the protocol makes, each charged as Run's radio would
// charge it: one message, its payload bytes and one delivery per current
// neighbor of the sender.
type Session struct {
	g      *graph.Graph
	policy cds.Policy
	// epoch counts state-mutating operations since bootstrap: every
	// successful ApplyChanges or UpdateEnergy increments it exactly once.
	// The bootstrapped state is epoch 0.
	epoch uint64
	stats Stats

	marker    *cds.IncrementalMarker // m(v) and the neighborhood masks, maintained over g
	rules     cds.Rules              // policy rules bound to the marker's masks and energyArr
	energyArr []float64              // mutated in place, never reallocated (rules' priority order closes over it)
	gw1       []bool                 // statuses after the latest Rule-1 sweep
	gw2       []bool                 // final statuses

	// Batch-scoped scratch sets, epoch-stamped so a maintenance interval
	// allocates nothing in steady state.
	linkChanged  cds.Worklist // hosts whose own link set changed
	seed         cds.Worklist // dirty frontier: the Rule-1 worklist
	f2           cds.Worklist // Rule-2 worklist
	flipped      cds.Worklist // hosts whose final status the rule phase changed
	pendingDirty cds.Worklist // energy-dirty hosts awaiting the next rule phase

	lastFrontier int
}

// EdgeChange is one link-layer event: link {A, B} appeared (Up) or
// disappeared.
type EdgeChange struct {
	A, B graph.NodeID
	Up   bool
}

// NewSession bootstraps a session with the full three-phase protocol plus
// the initial rule phase, at Run's cost. energy is required for EL1/EL2.
func NewSession(g *graph.Graph, p cds.Policy, energy []float64) (*Session, error) {
	n := g.NumNodes()
	if p.NeedsEnergy() && len(energy) != n {
		return nil, fmt.Errorf("distributed: policy %v needs energy for all %d nodes, got %d", p, n, len(energy))
	}
	s := &Session{
		g:         g.Clone(),
		policy:    p,
		energyArr: make([]float64, n),
		gw1:       make([]bool, n),
		gw2:       make([]bool, n),
	}
	copy(s.energyArr, energy)
	s.marker = cds.NewIncrementalMarker(s.g)
	rules, err := s.marker.Bind(p, s.energyArr)
	if err != nil {
		return nil, err
	}
	s.rules = rules
	s.linkChanged.Init(n)
	s.seed.Init(n)
	s.f2.Init(n)
	s.flipped.Init(n)
	s.pendingDirty.Init(n)

	// Bootstrap phases (as in Run), one round each: every host sends
	// Hello, then its NeighborList, then its marker in a Status.
	marked := s.marker.Marked()
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		s.broadcast(id, Hello, 0)
		s.broadcast(id, NeighborList, s.g.Degree(id))
		s.broadcast(id, Status, 0)
		s.seed.Add(id)
	}
	s.stats.Rounds += 3
	// The rule phase decides every slot. Each final status starts at its
	// marker, so the phase's flips are its unmarks; its slots are
	// serialized, so each unmark takes a round.
	copy(s.gw2, marked)
	s.stats.Rounds += s.rulePhase()
	return s, nil
}

// broadcast charges one broadcast of a message of the given kind from
// host from, whose payload lists nbrs neighbor ids (a NeighborList's
// list; 0 for the other kinds): one message, its payload bytes and one
// delivery per current neighbor of the sender. The session simulates no
// hosts, so it builds no Message.
func (s *Session) broadcast(from graph.NodeID, kind Kind, nbrs int) {
	s.stats.Messages++
	s.stats.Bytes += payloadSize(kind, nbrs)
	s.stats.Deliveries += s.g.Degree(from)
}

// addClosed adds v and its neighbors, the slots that read v, to w.
func (s *Session) addClosed(w *cds.Worklist, v graph.NodeID) {
	w.Add(v)
	for _, u := range s.g.Neighbors(v) {
		w.Add(u)
	}
}

// endPhase charges the round of a maintenance phase that began when
// Messages read sent; a phase that broadcast nothing takes no round.
func (s *Session) endPhase(sent int) {
	if s.stats.Messages > sent {
		s.stats.Rounds++
	}
}

// Gateways returns the current gateway assignment.
func (s *Session) Gateways() []bool {
	return slices.Clone(s.gw2)
}

// Stats returns cumulative protocol costs since bootstrap.
func (s *Session) Stats() Stats { return s.stats }

// Graph returns a snapshot of the session's current topology. The clone
// costs O(V+E); pollers that only need counts or the gateway assignment
// should use the cheap accessors (Epoch, NumNodes, NumGateways,
// GatewaysInto) instead.
func (s *Session) Graph() *graph.Graph { return s.g.Clone() }

// Epoch returns the number of successful state mutations (ApplyChanges or
// UpdateEnergy calls) since bootstrap. It is monotonic: two snapshots with
// equal epochs describe identical session state.
func (s *Session) Epoch() uint64 { return s.epoch }

// NumNodes returns the (fixed) host population size without cloning.
func (s *Session) NumNodes() int { return len(s.gw2) }

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
	if cap(dst) < len(s.gw2) {
		dst = make([]bool, len(s.gw2))
	}
	dst = dst[:len(s.gw2)]
	copy(dst, s.gw2)
	return dst
}

// LastFrontier returns the number of rule slots the most recent rule phase
// re-evaluated — the dirty-frontier size. After bootstrap it equals
// NumNodes; in steady state it tracks the size of the change's 2-hop
// neighborhood, not the network.
func (s *Session) LastFrontier() int { return s.lastFrontier }

// UpdateEnergy refreshes the hosts' energy levels and broadcasts the new
// value for every host whose level actually changed (energy-aware policies
// need their neighbors' current levels; an unchanged level is already
// correctly cached at the neighbors). For EL1/EL2 the changed hosts and
// their neighbors are queued as dirty for the next rule phase;
// topology-keyed policies (ID, ND) never need this call.
func (s *Session) UpdateEnergy(energy []float64) error {
	if len(energy) != len(s.energyArr) {
		return fmt.Errorf("%w: %d energy values for %d hosts", ErrStale, len(energy), len(s.energyArr))
	}
	sent := s.stats.Messages
	for v, e := range energy {
		if s.energyArr[v] == e {
			continue
		}
		id := graph.NodeID(v)
		s.energyArr[v] = e
		s.broadcast(id, NeighborList, s.g.Degree(id))
		if s.policy.NeedsEnergy() {
			// The priority order reads el() of a slot's neighbors, so a
			// changed level dirties the host and everyone adjacent to it.
			s.addClosed(&s.pendingDirty, id)
		}
	}
	s.endPhase(sent)
	s.epoch++
	return nil
}

// ApplyChanges applies a batch of link events, propagates the localized
// updates, and re-runs the rule phase over the dirty frontier. It returns
// the number of hosts whose marker changed.
func (s *Session) ApplyChanges(changes []EdgeChange) (int, error) {
	// Validate the whole batch before touching any state, so a rejected
	// batch leaves the session unchanged (the ErrStale contract).
	n := len(s.gw2)
	for _, ch := range changes {
		if ch.A == ch.B {
			return 0, fmt.Errorf("distributed: self link %d", ch.A)
		}
		if int(ch.A) >= n || int(ch.B) >= n || ch.A < 0 || ch.B < 0 {
			return 0, fmt.Errorf("%w: link %d-%d out of range for %d hosts", ErrStale, ch.A, ch.B, n)
		}
	}
	// The endpoints learn a toggle directly (link-layer beacon detection);
	// the marker notes which hosts' markers it may change.
	s.linkChanged.Reset()
	s.seed.Reset()
	for _, ch := range changes {
		toggled := false
		if ch.Up {
			toggled = s.marker.AddEdge(ch.A, ch.B)
		} else {
			toggled = s.marker.RemoveEdge(ch.A, ch.B)
		}
		if toggled {
			s.linkChanged.Add(ch.A)
			s.linkChanged.Add(ch.B)
		}
	}

	// Hosts with changed link sets broadcast their new neighbor lists.
	sent := s.stats.Messages
	for _, v := range s.linkChanged.List() {
		s.broadcast(v, NeighborList, s.g.Degree(v))
	}
	s.endPhase(sent)

	// Affected hosts recompute their markers. A changed marker is
	// broadcast; hosts whose link set changed broadcast their marker
	// unconditionally, because a NEW neighbor has no stored marker for
	// them yet (in a real system the status rides on the beacon).
	//
	// The rule-phase frontier is seeded with every host whose slot inputs
	// may have changed. The rules read adjacency, degree, markers and
	// energy only within N[v], so a flipped marker or a changed link set
	// dirties the host and its neighbors, and energy updates queued the
	// analogous set in pendingDirty.
	sent = s.stats.Messages
	s.marker.Marked() // recomputes the queued markers, which Flipped lists
	changed := len(s.marker.Flipped())
	for _, v := range s.marker.Flipped() {
		s.addClosed(&s.seed, v)
		if !s.linkChanged.Has(v) {
			s.broadcast(v, Status, 0)
		}
	}
	for _, v := range s.linkChanged.List() {
		s.addClosed(&s.seed, v)
		s.broadcast(v, Status, 0)
	}
	s.endPhase(sent)
	for _, v := range s.pendingDirty.List() {
		s.seed.Add(v)
	}
	s.pendingDirty.Reset()

	if s.rulePhase() > 0 {
		s.stats.Rounds++ // the final statuses are decided, so the updates share one round
	}
	s.epoch++
	return changed, nil
}

// rulePhase re-decides the rule slots of the seeded dirty frontier through
// the rule engine (cds.Rules.Resweep, which grows it with the cascades a
// full ID-ordered sweep would propagate) and broadcasts one StatusUpdate
// per host whose final status changed. It returns how many changed; the
// caller charges their rounds. gw1 and gw2 end equal to a full sweep from
// the current markers, which the golden and equivalence tests check.
func (s *Session) rulePhase() int {
	marked := s.marker.Marked()
	if s.policy == cds.NR {
		// No rules: a host's gateway status is its marker, with no
		// status-update traffic.
		for _, v := range s.seed.List() {
			s.gw1[v] = marked[v]
			s.gw2[v] = marked[v]
		}
		s.lastFrontier = len(s.seed.List())
		return 0
	}
	s.rules.Resweep(marked, s.gw1, s.gw2, &s.seed, &s.f2, &s.flipped)
	for _, v := range s.flipped.List() {
		s.broadcast(v, StatusUpdate, 0)
	}
	s.stats.StatusChanges += len(s.flipped.List())
	s.lastFrontier = len(s.f2.List())
	return len(s.flipped.List())
}
