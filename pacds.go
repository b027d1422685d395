// Package pacds is the public API of this repository: a library for
// computing power-aware connected dominating sets (CDS) in ad hoc wireless
// networks, after
//
//	Jie Wu, Ming Gao, Ivan Stojmenovic.
//	"On Calculating Power-Aware Connected Dominating Sets for Efficient
//	Routing in Ad Hoc Wireless Networks." ICPP 2001.
//
// The package re-exports the names the runnable examples (examples/ and
// example_test.go) use, so downstream code needs a single import:
//
//	g := pacds.FromEdges(5, [][2]pacds.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
//	res, err := pacds.Compute(g, pacds.ND, nil)
//	// res.Gateway is a connected dominating set of g.
//
// Functional areas:
//
//   - Graphs: FromEdges and the Graph methods (Neighbors, Edges, BFS,
//     connectivity, AddEdge/RemoveEdge).
//   - CDS: Mark (the Wu-Li marking process), Compute with the five
//     policies NR, ID, ND, EL1, EL2, the invariant checker VerifyCDS, and
//     IncrementalMarker for localized updates.
//   - Random networks: RandomConnectedNetwork builds unit-disk topologies
//     with PaperNetworkConfig; PaperMobility moves hosts.
//   - Routing and broadcast: NewRouter builds gateway membership lists and
//     routing tables and answers Route queries (paper Section 2.1); Flood
//     and BroadcastViaCDS compare blind flooding with gateway relaying.
//   - Simulation: PaperSimConfig / RunSim reproduce the paper's lifetime
//     experiment; PaperTrafficConfig / RunTraffic run it at packet level.
//   - Distributed execution: RunDistributed executes the marking process
//     and rules as a message-passing protocol and reports its cost;
//     NewMaintenanceSession maintains the CDS across topology changes with
//     localized traffic; RunAsync studies unserialized rule application.
//   - Serving: NewCDSServer runs the cdsd service in-process and
//     NewCDSClient talks to it.
//
// Everything else (graph I/O, Rule-k, the fault-tolerant protocol,
// streaming sessions, the load, chaos and resilience harnesses, tracing)
// is reached through the tools under cmd/: cdstool, cdsim, experiments,
// netviz, cdsd and loadgen.
package pacds

import (
	"net/http"

	"pacds/internal/broadcast"
	"pacds/internal/cds"
	"pacds/internal/des"
	"pacds/internal/distributed"
	"pacds/internal/energy"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/routing"
	"pacds/internal/server"
	"pacds/internal/sim"
	"pacds/internal/traffic"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// --- Graphs ---

// Graph is an undirected simple graph over nodes [0, n).
type Graph = graph.Graph

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// FromEdges builds a graph with n nodes and the given undirected edges.
func FromEdges(n int, edges [][2]NodeID) *Graph { return graph.FromEdges(n, edges) }

// --- CDS policies and computation ---

// Policy selects the pruning rule set.
type Policy = cds.Policy

// The five policies of the paper's evaluation.
const (
	NR  = cds.NR  // marking process only, no rules
	ID  = cds.ID  // original Wu-Li Rules 1 and 2 (node ID)
	ND  = cds.ND  // Rules 1a/2a (node degree)
	EL1 = cds.EL1 // Rules 1b/2b (energy level, ID tie-break)
	EL2 = cds.EL2 // Rules 1b'/2b' (energy level, degree then ID tie-break)
)

// Policies lists all policies in the paper's order.
var Policies = cds.Policies

// CDSResult is the outcome of the marking process plus rule application.
type CDSResult = cds.Result

// Mark runs the Wu-Li marking process and returns the markers.
func Mark(g *Graph) []bool { return cds.Mark(g) }

// Compute runs the marking process and the policy's pruning rules. energy
// is required for EL1/EL2 (one level per node) and ignored otherwise.
func Compute(g *Graph, p Policy, energy []float64) (*CDSResult, error) {
	return cds.Compute(g, p, energy)
}

// VerifyCDS checks that gateway is a connected dominating set of g.
func VerifyCDS(g *Graph, gateway []bool) error { return cds.VerifyCDS(g, gateway) }

// IncrementalMarker maintains markers under edge updates, recomputing only
// the affected hosts (the paper's locality property).
type IncrementalMarker = cds.IncrementalMarker

// NewIncrementalMarker starts incremental tracking for g.
func NewIncrementalMarker(g *Graph) *IncrementalMarker { return cds.NewIncrementalMarker(g) }

// --- Random networks and mobility ---

// Network is a generated unit-disk network instance: host positions plus
// the induced connectivity graph.
type Network = udg.Instance

// NetworkConfig describes a random unit-disk network.
type NetworkConfig = udg.Config

// PaperNetworkConfig returns the paper's parameters (100x100 field,
// radius 25) for n hosts.
func PaperNetworkConfig(n int) NetworkConfig { return udg.PaperConfig(n) }

// RNG is the deterministic random number generator used across the
// library.
type RNG = xrand.RNG

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// RandomConnectedNetwork samples random networks until one is connected.
func RandomConnectedNetwork(c NetworkConfig, rng *RNG, maxAttempts int) (*Network, error) {
	return udg.RandomConnected(c, rng, maxAttempts)
}

// PaperMobility is the paper's 8-direction probabilistic hop model.
type PaperMobility = mobility.Paper

// NewPaperMobility returns the model with the paper's parameters
// (c = 0.5, l in [1..6], clamped boundaries).
func NewPaperMobility() *PaperMobility { return mobility.NewPaper() }

// --- Energy ---

// DrainModel computes the per-gateway drain per update interval.
type DrainModel = energy.DrainModel

// LinearDrain is the paper's linear drain model (total traffic split
// across |G'|).
type LinearDrain = energy.Linear

// ConstantPerGWDrain is the premise-consistent per-gateway variant of the
// paper's constant drain model (see package energy).
type ConstantPerGWDrain = energy.ConstantPerGW

// --- Routing and broadcast ---

// Router answers dominating-set-based routing queries (paper Section 2.1).
type Router = routing.Router

// NewRouter builds a router for a topology and gateway assignment.
func NewRouter(g *Graph, gateway []bool) (*Router, error) { return routing.New(g, gateway) }

// BroadcastMetrics reports one network-wide dissemination.
type BroadcastMetrics = broadcast.Metrics

// Flood disseminates a message from src with every host relaying (blind
// flooding).
func Flood(g *Graph, src NodeID) BroadcastMetrics { return broadcast.Flood(g, src) }

// BroadcastViaCDS disseminates from src with only gateway hosts relaying —
// the canonical CDS application; reaches the same coverage with |G'| + 1
// transmissions instead of N.
func BroadcastViaCDS(g *Graph, src NodeID, gateway []bool) (BroadcastMetrics, error) {
	return broadcast.ViaCDS(g, src, gateway)
}

// --- Simulation ---

// SimConfig parameterizes a lifetime simulation run.
type SimConfig = sim.Config

// SimMetrics reports the outcome of one run.
type SimMetrics = sim.Metrics

// PaperSimConfig returns the paper's lifetime-simulation parameters.
func PaperSimConfig(n int, p Policy, drain DrainModel, seed uint64) SimConfig {
	return sim.PaperConfig(n, p, drain, seed)
}

// RunSim executes one lifetime simulation.
func RunSim(cfg SimConfig) (*SimMetrics, error) { return sim.Run(cfg) }

// TrafficConfig parameterizes the packet-level simulation, where
// forwarding work (per-hop tx/rx costs) drains the hosts that perform it.
type TrafficConfig = traffic.Config

// TrafficMetrics reports a packet-level run's outcome.
type TrafficMetrics = traffic.Metrics

// PaperTrafficConfig returns a packet-level configuration on the paper's
// field with a moderate constant-bit-rate load.
func PaperTrafficConfig(n int, p Policy, seed uint64) TrafficConfig {
	return traffic.PaperConfig(n, p, seed)
}

// RunTraffic executes one packet-level simulation.
func RunTraffic(cfg TrafficConfig) (*TrafficMetrics, error) { return traffic.Run(cfg) }

// --- Distributed execution ---

// DistributedStats reports message-passing protocol costs.
type DistributedStats = distributed.Stats

// RunDistributed executes the marking process and rules as a synchronous
// message-passing protocol, using only per-host local knowledge, and
// returns the gateway assignment plus protocol costs. The result always
// equals Compute's (tested exhaustively in the distributed package).
func RunDistributed(g *Graph, p Policy, energy []float64) ([]bool, DistributedStats, error) {
	return distributed.Run(g, p, energy)
}

// MaintenanceSession maintains a CDS across topology changes with
// localized message traffic (paper Section 2.2).
type MaintenanceSession = distributed.Session

// EdgeChange is one link-layer event fed to a MaintenanceSession.
type EdgeChange = distributed.EdgeChange

// NewMaintenanceSession bootstraps a maintenance session with the full
// protocol; subsequent topology changes cost only localized messages.
func NewMaintenanceSession(g *Graph, p Policy, energy []float64) (*MaintenanceSession, error) {
	return distributed.NewSession(g, p, energy)
}

// AsyncConfig parameterizes a fully asynchronous (discrete-event) rule
// application with random evaluation times and transmission delays.
type AsyncConfig = des.Config

// AsyncResult reports an asynchronous execution, including whether the
// final set violated the CDS property (the failure mode the serialized
// semantics prevents).
type AsyncResult = des.Result

// RunAsync executes the rule phase asynchronously over g.
func RunAsync(g *Graph, cfg AsyncConfig, energy []float64) (*AsyncResult, error) {
	return des.Run(g, cfg, energy)
}

// --- Serving (cdsd) ---

// ServerConfig parameterizes the cdsd serving subsystem (worker pool
// size, queue depth, cache capacity, deadlines, energy quantization).
type ServerConfig = server.Config

// CDSServer is the cdsd service: an HTTP/JSON API over Compute, RunSim,
// and VerifyCDS with a bounded worker pool, an LRU result cache keyed on
// the canonical graph digest, coalescing of identical in-flight requests,
// graceful drain, and a Prometheus-text /metrics endpoint. See
// cmd/cdsd for the standalone daemon.
type CDSServer = server.Server

// NewCDSServer starts the serving machinery (worker pool, cache); expose
// it with its Handler method and stop it with Shutdown or Close.
func NewCDSServer(cfg ServerConfig) *CDSServer { return server.New(cfg) }

// CDSClient is a typed HTTP client for a cdsd server.
type CDSClient = server.Client

// NewCDSClient returns a client for the cdsd server at baseURL.
// httpClient may be nil for a default with a 30s timeout.
func NewCDSClient(baseURL string, httpClient *http.Client) *CDSClient {
	return server.NewClient(baseURL, httpClient)
}

// Request types of the cdsd HTTP/JSON API.
type (
	ServerGraphSpec      = server.GraphSpec
	ServerComputeRequest = server.ComputeRequest
	ServerVerifyRequest  = server.VerifyRequest
	ServerFaultSpec      = server.FaultSpec
	ServerCrashSpec      = server.CrashSpec
)
