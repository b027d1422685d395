// Package distributed executes the Wu-Li marking process and the paper's
// pruning rules as an actual message-passing protocol: every host acts
// only on information it received over radio links (HELLO beacons,
// neighbor-list exchanges, and gateway-status broadcasts), never on global
// state. The package exists to demonstrate — and test — that the
// algorithm is genuinely local: the final gateway assignment must equal
// the centralized computation in package cds.
//
// Execution is organized in synchronous rounds (a standard abstraction for
// beacon-synchronized MAC layers). Rule application is serialized by node
// ID in TDMA-like slots: the paper's correctness argument removes one
// gateway at a time, and the slot schedule is the distributed realization
// of that serialization — each unmark is broadcast before the next host
// evaluates its rules.
package distributed

import (
	"fmt"

	"pacds/internal/faults"
	"pacds/internal/graph"
)

// Kind enumerates protocol message types.
type Kind int

const (
	// Hello announces a host's presence; receivers learn their neighbor
	// sets.
	Hello Kind = iota
	// NeighborList carries the sender's open neighbor set and its energy
	// level; receivers assemble distance-2 knowledge.
	NeighborList
	// Status announces the sender's initial marker after the marking
	// process.
	Status
	// StatusUpdate announces that the sender unmarked itself during rule
	// application.
	StatusUpdate
	// Ack acknowledges receipt of a sequence-numbered message (hardened
	// protocol only). Unicast back to the original sender.
	Ack

	numKinds = int(Ack) + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Hello:
		return "hello"
	case NeighborList:
		return "neighbor-list"
	case Status:
		return "status"
	case StatusUpdate:
		return "status-update"
	case Ack:
		return "ack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is a single radio transmission. Broadcasts reach every neighbor
// of the sender; unicasts (Unicast set) reach only To. Seq and AckFor are
// used by the hardened protocol's reliable-transfer layer and stay zero on
// the idealized radio.
type Message struct {
	From      graph.NodeID
	Kind      Kind
	Neighbors []graph.NodeID // NeighborList payload (aliases sender state; receivers must not mutate)
	Energy    float64        // NeighborList payload
	Marked    bool           // Status / StatusUpdate payload
	Seq       int            // sequence number for idempotent receive (hardened)
	To        graph.NodeID   // unicast target (hardened Acks)
	Unicast   bool           // deliver only to To instead of all neighbors
	AckFor    Kind           // Ack payload: the kind being acknowledged
}

// Stats accumulates protocol cost metrics. The fault-tolerance counters
// (Retransmissions through ConvergenceRound) are populated only by the
// hardened protocol and stay zero on the idealized reliable radio.
type Stats struct {
	Rounds        int // synchronous rounds executed
	Messages      int // transmissions (one broadcast = one message)
	Deliveries    int // receptions (one per neighbor per broadcast)
	StatusChanges int // unmark events during rule application
	// Bytes estimates the transmitted payload volume: a fixed header per
	// message plus 4 bytes per neighbor-list entry and 8 bytes for a
	// piggybacked energy level. Message counts alone understate the
	// NeighborList phase, whose payload grows with node degree.
	Bytes int

	// Retransmissions counts re-sends of reliable messages whose ACKs did
	// not arrive in time.
	Retransmissions int
	// Drops counts delivery attempts the radio lost (random loss, link
	// down-time, or a crashed receiver).
	Drops int
	// Duplicates counts deliveries the radio duplicated.
	Duplicates int
	// Evictions counts neighbor-table entries removed because the peer
	// missed HelloTimeout consecutive beacons.
	Evictions int
	// Revocations counts tentative unmarks rolled back because a neighbor
	// never acknowledged the StatusUpdate within the rule slot.
	Revocations int
	// Repairs counts hosts that re-marked themselves at finalization
	// because no gateway neighbor was visible (graceful degradation).
	Repairs int
	// ConvergenceRound is the last round at which any host's gateway
	// status changed — the protocol's settling time under faults.
	ConvergenceRound int
}

// payloadBytes estimates one message's size.
func payloadBytes(m Message) int { return payloadSize(m.Kind, len(m.Neighbors)) }

// payloadSize estimates the size of a message of kind k whose
// NeighborList payload holds nbrs ids.
func payloadSize(k Kind, nbrs int) int {
	const header = 8 // sender id + kind + flags
	switch k {
	case NeighborList:
		return header + 4*nbrs + 8
	default:
		return header + 1
	}
}

// network is the broadcast medium: it knows the connectivity graph and
// delivers each broadcast to the sender's neighbors at the end of the
// round (synchronous semantics).
type network struct {
	g       *graph.Graph
	pending []Message
	stats   Stats
}

func newNetwork(g *graph.Graph) *network {
	return &network{g: g}
}

// broadcast queues m for delivery at the end of the current round.
func (nw *network) broadcast(m Message) {
	nw.pending = append(nw.pending, m)
	nw.stats.Messages++
	nw.stats.Bytes += payloadBytes(m)
}

// deliver flushes queued broadcasts into the nodes' handlers and advances
// the round counter.
func (nw *network) deliver(nodes []*node) {
	msgs := nw.pending
	// Reuse the queue's capacity across rounds instead of reallocating per
	// deliver. Safe because receive never broadcasts: nothing can append to
	// (and alias) the backing array while this loop drains the round.
	nw.pending = nw.pending[:0]
	for _, m := range msgs {
		for _, to := range nw.g.Neighbors(m.From) {
			nodes[to].receive(m)
			nw.stats.Deliveries++
		}
	}
	nw.stats.Rounds++
}

// lossyNetwork is the fault-injected broadcast medium used by the
// hardened protocol. Every delivery attempt consults the fault plan,
// which may drop it, duplicate it, delay it into a later round, declare
// the link in transient down-time, or report either endpoint crashed.
// A nil plan yields exactly-once same-round delivery (reliable radio).
type lossyNetwork struct {
	g     *graph.Graph
	plan  *faults.Plan
	queue map[int][]Message // deliveries keyed by due round
	stats Stats
	txid  int // per-attempt id feeding the plan's deterministic hash
}

func newLossyNetwork(g *graph.Graph, plan *faults.Plan) *lossyNetwork {
	return &lossyNetwork{g: g, plan: plan, queue: make(map[int][]Message)}
}

// send transmits m during round r. Broadcasts fan out to every neighbor
// of the sender; unicasts target m.To only. Each per-receiver attempt is
// subjected to the fault plan independently, as on a real radio where
// collisions and fading hit receivers independently.
func (nw *lossyNetwork) send(r int, m Message) {
	nw.stats.Messages++
	nw.stats.Bytes += payloadBytes(m)
	if m.Unicast {
		if nw.g.HasEdge(m.From, m.To) {
			nw.attempt(r, m, m.To)
		}
		return
	}
	for _, to := range nw.g.Neighbors(m.From) {
		nw.attempt(r, m, to)
	}
}

func (nw *lossyNetwork) attempt(r int, m Message, to graph.NodeID) {
	nw.txid++
	if nw.plan == nil {
		nw.enqueue(r, m, to)
		return
	}
	if !nw.plan.Alive(int(to), r) || !nw.plan.LinkUp(int(m.From), int(to), r) {
		nw.stats.Drops++
		return
	}
	fate := nw.plan.Delivery(int(m.From), int(to), r, nw.txid)
	if fate.Copies == 0 {
		nw.stats.Drops++
		return
	}
	if fate.Copies > 1 {
		nw.stats.Duplicates++
	}
	for i := 0; i < fate.Copies; i++ {
		nw.enqueue(r+fate.Delay[i], m, to)
	}
}

func (nw *lossyNetwork) enqueue(due int, m Message, to graph.NodeID) {
	m.To = to
	m.Unicast = true // delivery is always point-to-point by now
	nw.queue[due] = append(nw.queue[due], m)
}

// flush hands round r's due deliveries to the hosts. Crashed receivers
// lose frames that were in flight when they went down.
func (nw *lossyNetwork) flush(r int, nodes []*hnode) {
	msgs := nw.queue[r]
	delete(nw.queue, r)
	for _, m := range msgs {
		rcv := nodes[m.To]
		if !rcv.alive {
			nw.stats.Drops++
			continue
		}
		rcv.receiveHardened(m, r, nw)
		nw.stats.Deliveries++
	}
	nw.stats.Rounds++
}
