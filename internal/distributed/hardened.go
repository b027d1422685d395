package distributed

import (
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/faults"
	"pacds/internal/graph"
)

// This file implements the hardened protocol variant: the same marking
// process and pruning rules as Run, executed over a radio that may drop,
// duplicate, delay, or sever transmissions and crash hosts mid-round
// (see internal/faults). The additional machinery is:
//
//   - a HELLO beacon every round, doubling as a liveness signal: a
//     neighbor that misses HelloTimeout consecutive beacons is evicted
//     from the local views on both sides of the link;
//   - sequence-numbered NeighborList / Status / StatusUpdate messages
//     with idempotent receive (stale and duplicated frames are ignored,
//     every frame is re-ACKed);
//   - per-message ACKs and retransmission with bounded exponential
//     backoff, in rounds;
//   - a TDMA-like rule phase in fixed-length slots where an unmark is
//     tentative until every current neighbor has ACKed the StatusUpdate —
//     otherwise it is revoked before the slot ends, so no neighbor can
//     ever hold a stale "u is still a gateway" belief about a host that
//     actually unmarked (the one belief direction that can break
//     domination);
//   - repeated rule epochs: each epoch resets the working gateway state
//     from the current markers and re-runs both sweeps, healing any
//     damage from crashes or evictions that happened earlier;
//   - a hard round budget after which every surviving host finalizes
//     from the state it has, applying a local domination repair (a host
//     whose marker is set but that sees no gateway neighbor re-marks
//     itself).
//
// The correctness contract degrades gracefully: with a nil or zero fault
// plan the result is bit-identical to Run and cds.MustCompute; under
// loss and crashes the finalized gateway set dominates the surviving
// subgraph and its induced subgraph is connected within every surviving
// component, provided faults quiesce at least one epoch before the
// budget (later faults are repaired for domination locally and for
// connectivity at the next epoch of a longer-running session).

// HardenedConfig tunes the loss-tolerant protocol. The zero value
// selects sensible defaults (see the field comments).
type HardenedConfig struct {
	// Faults is the fault plan the radio consults on every delivery.
	// Nil means a perfectly reliable radio.
	Faults *faults.Plan
	// HelloTimeout is K: a neighbor missing K consecutive beacons is
	// evicted. Must exceed the fault plan's transient link down-time or
	// live neighbors get evicted spuriously. Default 6.
	HelloTimeout int
	// MaxAttempts bounds transmissions per reliable message (first send
	// plus retransmissions). Default 4.
	MaxAttempts int
	// SlotLen is the length of one rule slot in rounds; it must leave
	// room for the intent broadcast, at least one retransmission, and
	// the ACK round trips. Minimum 4, default 8.
	SlotLen int
	// Epochs is how many times the rule phase runs. Later epochs heal
	// the damage of crashes during earlier ones. Default 2.
	Epochs int
	// RoundBudget is the hard deadline; 0 derives the exact schedule
	// length. A smaller budget truncates the schedule and finalizes
	// early (graceful degradation).
	RoundBudget int
}

func (c HardenedConfig) withDefaults() HardenedConfig {
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 6
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.SlotLen <= 0 {
		c.SlotLen = 8
	} else if c.SlotLen < 4 {
		c.SlotLen = 4
	}
	if c.Epochs <= 0 {
		c.Epochs = 2
	}
	return c
}

// HardenedResult is the outcome of a hardened run.
type HardenedResult struct {
	// Gateway is the finalized assignment; false for crashed hosts.
	Gateway []bool
	// Alive marks the hosts that survived to the final round.
	Alive []bool
	// Stats are the cumulative protocol costs, including the
	// fault-tolerance counters.
	Stats Stats
}

// hruntime holds the global schedule shared by every host. All of it is
// known before the run starts (round arithmetic), so no host ever needs
// non-local information to follow it.
type hruntime struct {
	cfg      HardenedConfig
	policy   cds.Policy
	n        int
	nlRound  int // initial NeighborList broadcast
	stRound  int // initial marker + Status broadcast
	firstEp  int // first epoch start
	slots    int // rule slots per epoch (2n; 0 for NR)
	epochLen int // slots plus a settling gap
	budget   int
	nw       *lossyNetwork
}

func newHruntime(g *graph.Graph, p cds.Policy, cfg HardenedConfig) *hruntime {
	rt := &hruntime{cfg: cfg, policy: p, n: g.NumNodes()}
	rt.nlRound = 2
	rt.stRound = rt.nlRound + 2
	rt.firstEp = rt.stRound + 3
	if p != cds.NR {
		rt.slots = 2 * rt.n
	}
	rt.epochLen = (rt.slots + 1) * cfg.SlotLen
	rt.budget = rt.firstEp + cfg.Epochs*rt.epochLen + cfg.SlotLen
	if cfg.RoundBudget > 0 {
		rt.budget = cfg.RoundBudget
	}
	rt.nw = newLossyNetwork(g, cfg.Faults)
	return rt
}

// converged records that some host's gateway status changed at round r.
func (rt *hruntime) converged(r int) {
	if r > rt.nw.stats.ConvergenceRound {
		rt.nw.stats.ConvergenceRound = r
	}
}

// pendingTx is one reliable message awaiting ACKs.
type pendingTx struct {
	msg       Message
	waiting   map[graph.NodeID]bool
	attempts  int
	nextRetry int
}

// hnode extends the basic host state with the hardened protocol's
// liveness, sequencing, and retransmission machinery. The embedded node
// supplies the marking and rule logic unchanged — the hardened protocol
// computes the same function over worse information.
type hnode struct {
	node
	alive     bool
	lastHeard map[graph.NodeID]int
	recvSeq   map[graph.NodeID]*[numKinds]int
	pend      [numKinds]*pendingTx
	dirtyNL   bool // neighbor set changed since last NeighborList send
	dirtySt   bool // marker (or audience) changed since last Status send
	dirty2Hop bool // 2-hop knowledge changed; marker needs recomputing

	epochUnmarked bool // committed a rule unmark this epoch
	unmarkPending bool // tentative unmark awaiting ACKs
	unmarkSlotEnd int  // first round after the slot of the pending unmark
}

func newHnode(id graph.NodeID, energy float64) *hnode {
	h := &hnode{node: *newNode(id, energy), alive: true}
	h.lastHeard = make(map[graph.NodeID]int)
	h.recvSeq = make(map[graph.NodeID]*[numKinds]int)
	return h
}

// reset wipes all learned state; used when a crashed host recovers (its
// volatile memory is gone) so it rejoins with no stale beliefs.
func (h *hnode) reset() {
	id, energy := h.id, h.energy
	h.node = *newNode(id, energy)
	h.lastHeard = make(map[graph.NodeID]int)
	h.recvSeq = make(map[graph.NodeID]*[numKinds]int)
	h.pend = [numKinds]*pendingTx{}
	h.dirtyNL, h.dirtySt, h.dirty2Hop = false, false, false
	h.epochUnmarked, h.unmarkPending = false, false
}

// noteHeard registers a frame from u at round r and returns u's position
// in nbrs; a previously unknown sender becomes a neighbor and triggers a
// state exchange toward it.
func (h *hnode) noteHeard(u graph.NodeID, r int) int {
	h.lastHeard[u] = r
	i, added := h.addNeighbor(u)
	if added {
		if _, ok := h.recvSeq[u]; !ok {
			h.recvSeq[u] = &[numKinds]int{}
		}
		h.dirtyNL, h.dirtySt, h.dirty2Hop = true, true, true
	}
	return i
}

// evict drops u from every local view after it missed too many beacons.
func (h *hnode) evict(u graph.NodeID, rt *hruntime) {
	h.removeNeighbor(u)
	delete(h.lastHeard, u)
	delete(h.recvSeq, u)
	h.dirtyNL, h.dirtySt, h.dirty2Hop = true, true, true
	rt.nw.stats.Evictions++
	for k := range h.pend {
		p := h.pend[k]
		if p == nil || !p.waiting[u] {
			continue
		}
		delete(p.waiting, u)
		// The resolve-on-empty check happens on the next tick; eviction
		// must not commit an unmark mid-scan.
	}
}

func (h *hnode) seqState(u graph.NodeID) *[numKinds]int {
	s, ok := h.recvSeq[u]
	if !ok {
		s = &[numKinds]int{}
		h.recvSeq[u] = s
	}
	return s
}

// sendReliable broadcasts m at round r and tracks it until every current
// neighbor ACKs. Sequence numbers are the send round, which is strictly
// monotone per kind even across crash recoveries.
func (h *hnode) sendReliable(r int, m Message, rt *hruntime) {
	m.Seq = r
	waiting := make(map[graph.NodeID]bool, len(h.nbrs))
	for _, u := range h.nbrs {
		waiting[u] = true
	}
	h.pend[m.Kind] = &pendingTx{msg: m, waiting: waiting, attempts: 1, nextRetry: r + 2}
	rt.nw.send(r, m)
}

func (h *hnode) sendNeighborList(r int, rt *hruntime) {
	nbrs := append([]graph.NodeID(nil), h.nbrs...) // snapshot: retransmissions must not alias live state
	h.dirtyNL = false
	h.sendReliable(r, Message{From: h.id, Kind: NeighborList, Neighbors: nbrs, Energy: h.energy}, rt)
}

func (h *hnode) sendStatus(r int, rt *hruntime) {
	h.dirtySt = false
	h.sendReliable(r, Message{From: h.id, Kind: Status, Marked: h.marker}, rt)
}

// receiveHardened handles one delivered frame at round r.
func (h *hnode) receiveHardened(m Message, r int, nw *lossyNetwork) {
	k := &h.know[h.noteHeard(m.From, r)]
	switch m.Kind {
	case Hello:
		// The beacon itself carries no payload; noteHeard did the work.
	case Ack:
		p := h.pend[m.AckFor]
		if p != nil && p.msg.Seq == m.Seq {
			delete(p.waiting, m.From)
			if len(p.waiting) == 0 {
				h.resolvePending(m.AckFor, r, nw)
			}
		}
	case NeighborList:
		if s := h.seqState(m.From); m.Seq > s[NeighborList] {
			s[NeighborList] = m.Seq
			k.set, k.energy = m.Neighbors, m.Energy
			h.dirty2Hop = true
		}
		h.sendAck(m, r, nw)
	case Status:
		if s := h.seqState(m.From); m.Seq > s[Status] {
			s[Status] = m.Seq
			k.markerHeard, k.marker = true, m.Marked
		}
		h.sendAck(m, r, nw)
	case StatusUpdate:
		if s := h.seqState(m.From); m.Seq > s[StatusUpdate] {
			s[StatusUpdate] = m.Seq
			k.gateway = m.Marked
		}
		h.sendAck(m, r, nw)
	}
}

// sendAck acknowledges m (even if it was stale or duplicated — the
// sender may have missed the previous ACK). ACKs ride the next round.
func (h *hnode) sendAck(m Message, r int, nw *lossyNetwork) {
	nw.send(r+1, Message{From: h.id, Kind: Ack, To: m.From, Unicast: true, Seq: m.Seq, AckFor: m.Kind})
}

// resolvePending clears a fully-ACKed reliable message. A tentative
// unmark whose intent every neighbor ACKed is committed here.
func (h *hnode) resolvePending(k Kind, r int, nw *lossyNetwork) {
	p := h.pend[k]
	h.pend[k] = nil
	if k == Kind(StatusUpdate) && h.unmarkPending && p != nil && !p.msg.Marked {
		h.unmarkPending = false
		h.gateway = false
		h.epochUnmarked = true
		nw.stats.StatusChanges++
		if r > nw.stats.ConvergenceRound {
			nw.stats.ConvergenceRound = r
		}
	} else if k == Kind(StatusUpdate) {
		h.unmarkPending = false
	}
}

// epochReset restarts the rule phase from the current markers, like
// runRulePhase's beginRulePhase but on the hardened state: a neighbour
// whose marker was not heard is no longer counted as a gateway.
func (h *hnode) epochReset(r int, rt *hruntime) {
	if h.unmarkPending {
		h.unmarkPending = false
		h.pend[StatusUpdate] = nil
	}
	old := h.gateway
	h.gateway = h.marker
	h.epochUnmarked = false
	for i := range h.know {
		k := &h.know[i]
		k.gateway = k.markerHeard && k.marker
	}
	if h.gateway != old {
		rt.converged(r)
	}
}

// recomputeMarker refreshes the marker from current 2-hop knowledge. A
// marker that turns true forces the host back into the working gateway
// set immediately (domination may depend on it); a marker that turns
// false does not clear the gateway flag — only an ACKed rule unmark or
// the next epoch reset may do that, so neighbors are never left
// believing in a gateway that silently resigned.
func (h *hnode) recomputeMarker(r int, rt *hruntime) {
	old := h.marker
	h.computeMarker()
	h.dirty2Hop = false
	if h.marker == old {
		return
	}
	h.dirtySt = true
	if h.marker && !h.gateway {
		h.gateway = true
		rt.converged(r)
	}
}

// tick runs one host's per-round duties.
func (h *hnode) tick(r int, rt *hruntime) {
	// Beacon: presence + liveness, every round.
	rt.nw.send(r, Message{From: h.id, Kind: Hello})

	// Evict neighbors that fell silent.
	if len(h.nbrs) > 0 {
		var gone []graph.NodeID
		for _, u := range h.nbrs {
			if r-h.lastHeard[u] > rt.cfg.HelloTimeout {
				gone = append(gone, u)
			}
		}
		for _, u := range gone {
			h.evict(u, rt)
		}
	}

	// Fully-ACKed messages whose last ACK arrived via eviction.
	for k := range h.pend {
		if p := h.pend[k]; p != nil && len(p.waiting) == 0 {
			h.resolvePending(Kind(k), r, rt.nw)
		}
	}

	// Scheduled and dirty-driven state exchange.
	switch {
	case r == rt.nlRound:
		h.sendNeighborList(r, rt)
	case r > rt.nlRound && h.dirtyNL:
		h.sendNeighborList(r, rt)
	}
	switch {
	case r == rt.stRound:
		h.computeMarker()
		h.dirty2Hop = false
		h.sendStatus(r, rt)
	case r > rt.stRound:
		if h.dirty2Hop {
			h.recomputeMarker(r, rt)
		}
		if h.dirtySt {
			h.sendStatus(r, rt)
		}
	}

	// Rule-phase schedule: epoch resets and slot evaluations.
	if off := r - rt.firstEp; off >= 0 && off/rt.epochLen < rt.cfg.Epochs {
		o := off % rt.epochLen
		if o == 0 {
			h.epochReset(r, rt)
		}
		if rt.slots > 0 && o < rt.slots*rt.cfg.SlotLen && o%rt.cfg.SlotLen == 0 {
			slot := o / rt.cfg.SlotLen
			if slot%rt.n == int(h.id) {
				h.trySlot(r, slot/rt.n+1, rt)
			}
		}
	}

	// Revoke a tentative unmark that could not gather all ACKs in time.
	if h.unmarkPending && r >= h.unmarkSlotEnd-1 {
		h.unmarkPending = false
		h.pend[StatusUpdate] = nil
		rt.nw.stats.Revocations++
		h.sendReliable(r, Message{From: h.id, Kind: StatusUpdate, Marked: true}, rt)
	}

	// Retransmissions with bounded exponential backoff.
	for k := range h.pend {
		p := h.pend[k]
		if p == nil || r < p.nextRetry {
			continue
		}
		if p.attempts >= rt.cfg.MaxAttempts {
			if Kind(k) != StatusUpdate || !h.unmarkPending {
				h.pend[k] = nil // best effort exhausted; a newer send will supersede
			}
			continue
		}
		rt.nw.send(r, p.msg)
		p.attempts++
		backoff := 1 << uint(p.attempts-1)
		if backoff > 8 {
			backoff = 8
		}
		p.nextRetry = r + 1 + backoff
		rt.nw.stats.Retransmissions++
	}
}

// trySlot evaluates the host's rule in its slot. An unmark is tentative:
// the StatusUpdate must be ACKed by every current neighbor before the
// host actually leaves the gateway set.
func (h *hnode) trySlot(r, rule int, rt *hruntime) {
	if !h.gateway || h.unmarkPending {
		return
	}
	// The rule predicates are pure: the unmark stays tentative until every
	// neighbor ACKs, so nothing needs rolling back here.
	var fire bool
	if rule == 1 {
		fire = h.rule1Applies(rt.policy)
	} else {
		fire = h.rule2Applies(rt.policy)
	}
	if !fire {
		return
	}
	if len(h.nbrs) == 0 {
		// Nobody to inform: commit immediately.
		h.gateway = false
		h.epochUnmarked = true
		rt.nw.stats.StatusChanges++
		rt.converged(r)
		return
	}
	h.unmarkPending = true
	h.unmarkSlotEnd = r + rt.cfg.SlotLen
	h.sendReliable(r, Message{From: h.id, Kind: StatusUpdate, Marked: false}, rt)
}

// finalize applies the end-of-budget repairs and reads out the result.
func (h *hnode) finalize(rt *hruntime) {
	if h.dirty2Hop {
		h.computeMarker()
		h.dirty2Hop = false
	}
	if h.marker && !h.gateway {
		covered := false
		for i := range h.know {
			if h.know[i].gateway {
				covered = true
				break
			}
		}
		if !covered {
			// No visible gateway would dominate this host's area: rejoin
			// the backbone rather than leave a hole.
			h.gateway = true
			rt.nw.stats.Repairs++
			rt.converged(rt.budget)
		}
	}
}

// RunHardened executes the fault-tolerant protocol over the radio
// topology g under the given pruning policy and fault plan. With a nil
// or zero-fault plan the returned gateway assignment is bit-identical to
// Run (and hence to cds.MustCompute); under faults it degrades
// gracefully as documented at the top of this file.
func RunHardened(g *graph.Graph, p cds.Policy, energy []float64, cfg HardenedConfig) (*HardenedResult, error) {
	n := g.NumNodes()
	if p.NeedsEnergy() && len(energy) != n {
		return nil, fmt.Errorf("distributed: policy %v needs energy for all %d nodes, got %d", p, n, len(energy))
	}
	cfg = cfg.withDefaults()
	rt := newHruntime(g, p, cfg)
	nodes := make([]*hnode, n)
	for v := 0; v < n; v++ {
		var e float64
		if len(energy) == n {
			e = energy[v]
		}
		nodes[v] = newHnode(graph.NodeID(v), e)
	}

	plan := cfg.Faults
	for r := 1; r <= rt.budget; r++ {
		for v, h := range nodes {
			wasAlive := h.alive
			h.alive = plan == nil || plan.Alive(v, r)
			if !h.alive {
				continue
			}
			if !wasAlive {
				h.reset() // recovered: volatile state is gone
			}
			h.tick(r, rt)
		}
		rt.nw.flush(r, nodes)
	}

	res := &HardenedResult{
		Gateway: make([]bool, n),
		Alive:   make([]bool, n),
	}
	for v, h := range nodes {
		if !h.alive {
			continue
		}
		h.finalize(rt)
		res.Alive[v] = true
		res.Gateway[v] = h.gateway
	}
	res.Stats = rt.nw.stats
	return res, nil
}
