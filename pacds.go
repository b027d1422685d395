// Package pacds is the public API of this repository: a library for
// computing power-aware connected dominating sets (CDS) in ad hoc wireless
// networks, after
//
//	Jie Wu, Ming Gao, Ivan Stojmenovic.
//	"On Calculating Power-Aware Connected Dominating Sets for Efficient
//	Routing in Ad Hoc Wireless Networks." ICPP 2001.
//
// The package re-exports the implementation packages' user-facing types
// and functions so downstream code needs a single import:
//
//	g := pacds.FromEdges(5, [][2]pacds.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
//	res, err := pacds.Compute(g, pacds.ND, nil)
//	// res.Gateway is a connected dominating set of g.
//
// Functional areas:
//
//   - Graphs: NewGraph, FromEdges, ReadGraph, WriteGraph and the Graph
//     methods (Neighbors, BFS, connectivity, induced subgraphs).
//   - CDS: Mark (the Wu-Li marking process), Compute / ApplyRules with the
//     five policies NR, ID, ND, EL1, EL2, invariant checkers VerifyCDS and
//     VerifyProperty3, and IncrementalMarker for localized updates.
//   - Random networks: RandomNetwork / RandomConnectedNetwork build
//     unit-disk topologies; mobility models move hosts.
//   - Energy: battery Levels and the drain models of the paper's three
//     traffic assumptions (plus premise-consistent per-gateway variants).
//   - Routing: NewRouter builds gateway membership lists and routing
//     tables and answers Route/Stretch queries (paper Section 2.1).
//   - Simulation: SimConfig / RunSim / RunSimTrials reproduce the paper's
//     lifetime experiment; the experiments subcommands regenerate every
//     figure.
//   - Distributed execution: RunDistributed executes the marking process
//     and rules as a message-passing protocol and reports its cost;
//     NewMaintenanceSession maintains the CDS across topology changes with
//     localized traffic; RunAsync studies unserialized rule application.
//   - Extensions: Rule-k pruning, packet-level traffic with per-hop
//     energy accounting, max-min energy routing, broadcast via CDS,
//     quasi-UDG and clustered deployments, SVG rendering.
//   - Serving & load: NewCDSServer / StartLocalCDSServer run the cdsd
//     service; RunLoad drives it with a deterministic seeded workload and
//     cross-checks responses against the library (see cmd/loadgen).
//   - Streaming sessions: NewTopologySessionManager maintains many
//     long-lived incremental CDS sessions (cdsd's /v1/sessions API);
//     RunSessionLoad streams deterministic delta batches at them and
//     replays every sampled snapshot against an in-process oracle.
//   - Resilience & chaos: NewResilientCDSClient wraps the client with
//     retries, deterministic backoff, a circuit breaker, and hedging;
//     NewChaosPlan / NewChaosTransport inject seeded L7 faults for
//     deterministic resilience soaks (loadgen -chaos).
package pacds

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"pacds/internal/broadcast"
	"pacds/internal/cds"
	"pacds/internal/chaos"
	"pacds/internal/des"
	"pacds/internal/distributed"
	"pacds/internal/energy"
	"pacds/internal/faults"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/load"
	"pacds/internal/metrics"
	"pacds/internal/mobility"
	"pacds/internal/obs"
	"pacds/internal/resilience"
	"pacds/internal/routing"
	"pacds/internal/server"
	"pacds/internal/sim"
	"pacds/internal/topo"
	"pacds/internal/traffic"
	"pacds/internal/udg"
	"pacds/internal/viz"
	"pacds/internal/xrand"
)

// --- Graphs ---

// Graph is an undirected simple graph over nodes [0, n).
type Graph = graph.Graph

// NodeID identifies a vertex.
type NodeID = graph.NodeID

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// FromEdges builds a graph with n nodes and the given undirected edges.
func FromEdges(n int, edges [][2]NodeID) *Graph { return graph.FromEdges(n, edges) }

// ReadGraph decodes a graph from the textual edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph encodes a graph in the textual edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

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

// PolicyByName parses a policy label ("NR", "ID", "ND", "EL1", "EL2").
func PolicyByName(name string) (Policy, error) { return cds.ByName(name) }

// CDSResult is the outcome of the marking process plus rule application.
type CDSResult = cds.Result

// Mark runs the Wu-Li marking process and returns the markers.
func Mark(g *Graph) []bool { return cds.Mark(g) }

// Compute runs the marking process and the policy's pruning rules. energy
// is required for EL1/EL2 (one level per node) and ignored otherwise.
func Compute(g *Graph, p Policy, energy []float64) (*CDSResult, error) {
	return cds.Compute(g, p, energy)
}

// ApplyRules applies a policy's rules to an existing marking snapshot.
func ApplyRules(g *Graph, p Policy, marked []bool, energy []float64) ([]bool, error) {
	return cds.ApplyRules(g, p, marked, energy)
}

// ComputeParallel is Compute with the marking and pruning passes fanned
// out across workers goroutines (0 = GOMAXPROCS, 1 = serial). The result
// is byte-identical to Compute at every worker count.
func ComputeParallel(g *Graph, p Policy, energy []float64, workers int) (*CDSResult, error) {
	return cds.ComputeParallel(g, p, energy, workers)
}

// VerifyCDS checks that gateway is a connected dominating set of g.
func VerifyCDS(g *Graph, gateway []bool) error { return cds.VerifyCDS(g, gateway) }

// VerifyProperty3 checks the paper's Property 3 for a marking: every pair
// of hosts has a shortest path whose interior is marked.
func VerifyProperty3(g *Graph, marked []bool) error { return cds.VerifyProperty3(g, marked) }

// IncrementalMarker maintains markers under edge updates, recomputing only
// the affected hosts (the paper's locality property).
type IncrementalMarker = cds.IncrementalMarker

// NewIncrementalMarker starts incremental tracking for g.
func NewIncrementalMarker(g *Graph) *IncrementalMarker { return cds.NewIncrementalMarker(g) }

// CDSReport summarizes backbone quality (size, diameter, cut vertices,
// first-hop redundancy).
type CDSReport = cds.Report

// AnalyzeCDS computes a quality report for a gateway assignment.
func AnalyzeCDS(g *Graph, gateway []bool) (*CDSReport, error) { return cds.Analyze(g, gateway) }

// --- Geometry and random networks ---

// Point is a 2-D location.
type Point = geom.Point

// Rect is an axis-aligned rectangle.
type Rect = geom.Rect

// Square returns the square [0, side] x [0, side].
func Square(side float64) Rect { return geom.Square(side) }

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

// RandomNetwork places hosts uniformly at random and builds the unit-disk
// graph.
func RandomNetwork(c NetworkConfig, rng *RNG) (*Network, error) { return udg.Random(c, rng) }

// RandomConnectedNetwork samples random networks until one is connected.
func RandomConnectedNetwork(c NetworkConfig, rng *RNG, maxAttempts int) (*Network, error) {
	return udg.RandomConnected(c, rng, maxAttempts)
}

// BuildUnitDiskGraph constructs the unit-disk graph over fixed positions.
func BuildUnitDiskGraph(positions []Point, field Rect, radius float64) *Graph {
	return udg.Build(positions, field, radius)
}

// --- Mobility ---

// MobilityModel advances host positions by one update interval.
type MobilityModel = mobility.Model

// PaperMobility is the paper's 8-direction probabilistic hop model.
type PaperMobility = mobility.Paper

// NewPaperMobility returns the model with the paper's parameters
// (c = 0.5, l in [1..6], clamped boundaries).
func NewPaperMobility() *PaperMobility { return mobility.NewPaper() }

// RandomWalk and RandomWaypoint are extension mobility models.
type (
	RandomWalk     = mobility.RandomWalk
	RandomWaypoint = mobility.RandomWaypoint
	StaticHosts    = mobility.Static
)

// --- Energy ---

// DrainModel computes the per-gateway drain per update interval.
type DrainModel = energy.DrainModel

// Literal drain models from the paper (total traffic split across |G'|).
type (
	ConstantDrain  = energy.Constant
	LinearDrain    = energy.Linear
	QuadraticDrain = energy.Quadratic
)

// Premise-consistent per-gateway variants (see package energy).
type (
	ConstantPerGWDrain  = energy.ConstantPerGW
	LinearPerGWDrain    = energy.LinearPerGW
	QuadraticPerGWDrain = energy.QuadraticPerGW
)

// DrainByName parses a drain model name ("const", "linear", "quadratic",
// or a "-pergw" variant).
func DrainByName(name string) (DrainModel, error) { return energy.ByName(name) }

// EnergyLevels tracks per-host battery levels.
type EnergyLevels = energy.Levels

// NewEnergyLevels returns batteries for n hosts at the given initial
// level.
func NewEnergyLevels(n int, initial float64) *EnergyLevels { return energy.NewLevels(n, initial) }

// --- Routing ---

// Router answers dominating-set-based routing queries (paper Section 2.1).
type Router = routing.Router

// RoutingTableEntry is one row of a gateway routing table (Figure 2c).
type RoutingTableEntry = routing.TableEntry

// NewRouter builds a router for a topology and gateway assignment.
func NewRouter(g *Graph, gateway []bool) (*Router, error) { return routing.New(g, gateway) }

// DVStats reports the cost of distributed routing-table construction.
type DVStats = routing.DVStats

// BuildTablesDistanceVector constructs the gateway routing tables the
// distributed way — distance-vector exchange over backbone links — and
// returns the pairwise gateway distances plus protocol cost. The result
// equals the centrally-built tables (tested exhaustively).
func BuildTablesDistanceVector(g *Graph, gateway []bool) ([][]int, DVStats, error) {
	return routing.BuildTablesDistanceVector(g, gateway)
}

// --- Simulation ---

// SimConfig parameterizes a lifetime simulation run.
type SimConfig = sim.Config

// SimMetrics reports the outcome of one run.
type SimMetrics = sim.Metrics

// SimTrialStats aggregates metrics across trials.
type SimTrialStats = sim.TrialStats

// PaperSimConfig returns the paper's lifetime-simulation parameters.
func PaperSimConfig(n int, p Policy, drain DrainModel, seed uint64) SimConfig {
	return sim.PaperConfig(n, p, drain, seed)
}

// RunSim executes one lifetime simulation.
func RunSim(cfg SimConfig) (*SimMetrics, error) { return sim.Run(cfg) }

// RunSimTrials executes several independent runs and aggregates them.
func RunSimTrials(cfg SimConfig, trials int) (*SimTrialStats, error) {
	return sim.RunTrials(cfg, trials)
}

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

// --- Extensions beyond the paper ---

// ApplyRuleK applies the Rule-k generalization (coverage by any connected
// set of higher-priority marked neighbors) — the lineage of the paper's
// future work. See internal/cds/rulek.go.
func ApplyRuleK(g *Graph, p Policy, marked []bool, energy []float64) ([]bool, error) {
	return cds.ApplyRuleK(g, p, marked, energy)
}

// RunSimTrialsParallel is RunSimTrials across a worker pool; results are
// bit-identical to the sequential version for the same configuration.
func RunSimTrialsParallel(cfg SimConfig, trials, workers int) (*SimTrialStats, error) {
	return sim.RunTrialsParallel(cfg, trials, workers)
}

// TrafficConfig parameterizes the packet-level simulation, where
// forwarding work (per-hop tx/rx costs) drains the hosts that perform it.
type TrafficConfig = traffic.Config

// TrafficMetrics reports a packet-level run's outcome.
type TrafficMetrics = traffic.Metrics

// TrafficFlow is one constant-bit-rate conversation.
type TrafficFlow = traffic.Flow

// PaperTrafficConfig returns a packet-level configuration on the paper's
// field with a moderate constant-bit-rate load.
func PaperTrafficConfig(n int, p Policy, seed uint64) TrafficConfig {
	return traffic.PaperConfig(n, p, seed)
}

// RunTraffic executes one packet-level simulation.
func RunTraffic(cfg TrafficConfig) (*TrafficMetrics, error) { return traffic.Run(cfg) }

// ApplyRulesFixpoint iterates a policy's rules to a fixpoint. Because
// every rule's eligibility is monotone non-decreasing in the gateway set
// and rule application only shrinks it, the single sequential pass is
// already the fixpoint — no confirming re-scan is needed (see
// internal/cds/fixpoint.go for the theorem).
func ApplyRulesFixpoint(g *Graph, p Policy, marked []bool, energy []float64) ([]bool, int, error) {
	return cds.ApplyRulesFixpoint(g, p, marked, energy)
}

// ExtendedSimMetrics reports a lifetime run continued past the first
// death (death timeline, half-death interval).
type ExtendedSimMetrics = sim.ExtendedMetrics

// RunSimExtended continues a lifetime simulation until the alive fraction
// drops below stopAliveFrac, with dead hosts removed from the topology.
func RunSimExtended(cfg SimConfig, stopAliveFrac float64) (*ExtendedSimMetrics, error) {
	return sim.RunExtended(cfg, stopAliveFrac)
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

// ClusterConfig parameterizes hotspot (non-uniform) host placement.
type ClusterConfig = udg.ClusterConfig

// RandomClusteredNetwork generates a hotspot-deployed instance.
func RandomClusteredNetwork(c NetworkConfig, cc ClusterConfig, rng *RNG) (*Network, error) {
	return udg.RandomClustered(c, cc, rng)
}

// RandomClusteredConnectedNetwork samples hotspot instances until one is
// connected.
func RandomClusteredConnectedNetwork(c NetworkConfig, cc ClusterConfig, rng *RNG, maxAttempts int) (*Network, error) {
	return udg.RandomClusteredConnected(c, cc, rng, maxAttempts)
}

// RenderSVG draws a network snapshot (positions, links, gateway backbone,
// optional energy rings) as SVG.
func RenderSVG(w io.Writer, g *Graph, positions []Point, field Rect,
	gateway []bool, energy []float64, opt RenderOptions) error {
	return viz.SVG(w, g, positions, field, gateway, energy, opt)
}

// RenderOptions controls RenderSVG.
type RenderOptions = viz.Options

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

// BroadcastSaving returns the fraction of transmissions the CDS broadcast
// avoids relative to flooding.
func BroadcastSaving(flood, cds BroadcastMetrics) float64 { return broadcast.Saving(flood, cds) }

// QuasiNetworkConfig describes a quasi unit-disk network (reliable inner
// radius, probabilistic transition zone, hard outer radius).
type QuasiNetworkConfig = udg.QuasiConfig

// PaperQuasiNetworkConfig brackets the paper's radius 25 with RMin=20,
// RMax=30, zone probability 0.5.
func PaperQuasiNetworkConfig(n int) QuasiNetworkConfig { return udg.PaperQuasiConfig(n) }

// RandomQuasiNetwork generates a quasi unit-disk instance.
func RandomQuasiNetwork(c QuasiNetworkConfig, rng *RNG) (*Network, error) {
	return udg.RandomQuasi(c, rng)
}

// RandomQuasiConnectedNetwork samples quasi instances until one is
// connected.
func RandomQuasiConnectedNetwork(c QuasiNetworkConfig, rng *RNG, maxAttempts int) (*Network, error) {
	return udg.RandomQuasiConnected(c, rng, maxAttempts)
}

// ApplyRulesOrdered applies a policy's rules under an explicit processing
// order (any permutation yields a valid CDS; see internal/cds/order.go).
func ApplyRulesOrdered(g *Graph, p Policy, marked []bool, energy []float64, order []NodeID) ([]bool, error) {
	return cds.ApplyRulesOrdered(g, p, marked, energy, order)
}

// AsyncConfig parameterizes a fully asynchronous (discrete-event) rule
// application with random evaluation times and transmission delays.
type AsyncConfig = des.Config

// AsyncResult reports an asynchronous execution, including whether the
// final set violated the CDS property (the failure mode the serialized
// semantics prevents).
type AsyncResult = des.Result

// DefaultAsyncConfig returns the adversarial-delay asynchronous setup.
func DefaultAsyncConfig(p Policy, seed uint64) AsyncConfig { return des.DefaultConfig(p, seed) }

// RunAsync executes the rule phase asynchronously over g.
func RunAsync(g *Graph, cfg AsyncConfig, energy []float64) (*AsyncResult, error) {
	return des.Run(g, cfg, energy)
}

// DistributedSimMetrics reports a lifetime simulation executed end-to-end
// through the message-passing maintenance session, including the
// cumulative protocol cost.
type DistributedSimMetrics = sim.DistributedMetrics

// RunSimDistributed runs the paper's lifetime experiment through the
// distributed maintenance session; the maintained gateway set is checked
// against the centralized computation every interval.
func RunSimDistributed(cfg SimConfig) (*DistributedSimMetrics, error) {
	return sim.RunDistributed(cfg)
}

// ChurnSimConfig adds on/off switching (the paper's "special form of
// mobility") to a lifetime simulation.
type ChurnSimConfig = sim.ChurnConfig

// ChurnSimMetrics reports a churn run.
type ChurnSimMetrics = sim.ChurnMetrics

// RunSimChurn executes a lifetime simulation where hosts power down and
// return probabilistically, saving battery while off.
func RunSimChurn(cfg ChurnSimConfig) (*ChurnSimMetrics, error) { return sim.RunChurn(cfg) }

// --- Fault tolerance ---

// FaultConfig declares a deterministic fault plan: message loss,
// duplication, delay/reordering, transient link down-time, and scheduled
// host crashes. See internal/faults.
type FaultConfig = faults.Config

// Crash schedules one host failure (and optional recovery) by round.
type Crash = faults.Crash

// FaultPlan is a compiled, replayable fault schedule.
type FaultPlan = faults.Plan

// NewFaultPlan validates cfg and compiles it into a plan. Every fault is
// a pure function of the seed and the delivery coordinates, so a failing
// run replays exactly.
func NewFaultPlan(cfg FaultConfig) (*FaultPlan, error) { return faults.NewPlan(cfg) }

// HardenedConfig parameterizes the fault-tolerant distributed protocol.
type HardenedConfig = distributed.HardenedConfig

// HardenedResult is the finalized outcome of a hardened run.
type HardenedResult = distributed.HardenedResult

// RunDistributedHardened executes the marking process and rules over a
// faulty radio: sequence-numbered messages with ACK/retransmission,
// HELLO-timeout neighbor eviction, commit-on-ACK unmarks, and healing
// epochs. With zero faults the result is bit-identical to Compute; under
// faults the finalized set is a CDS of the surviving subgraph (verify
// with VerifySurvivorCDS).
func RunDistributedHardened(g *Graph, p Policy, energy []float64, cfg HardenedConfig) (*HardenedResult, error) {
	return distributed.RunHardened(g, p, energy, cfg)
}

// ErrStale reports a maintenance-session input assembled against an
// outdated topology snapshot; recoverable (re-snapshot and resubmit).
// Test with errors.Is.
var ErrStale = distributed.ErrStale

// VerifySurvivorCDS checks the graceful-degradation invariant: gateway
// restricted to the alive hosts is a CDS of the surviving subgraph.
func VerifySurvivorCDS(g *Graph, alive, gateway []bool) error {
	return cds.VerifySurvivorCDS(g, alive, gateway)
}

// --- Serving (cdsd) ---

// CanonicalGraph returns the canonical byte encoding of g: two graphs
// are equal iff their canonical encodings are byte-identical. The serving
// layer keys its result cache on a hash of this encoding.
func CanonicalGraph(g *Graph) []byte { return graph.Canonical(g) }

// GraphDigest returns the 64-bit FNV-1a fingerprint of g's canonical
// encoding — a cheap topology cache key.
func GraphDigest(g *Graph) uint64 { return graph.Digest(g) }

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

// ResilientCDSClient wraps a CDSClient with retries, deterministic
// seeded backoff, a circuit breaker, a retry budget, and optional
// hedging. It retries only errors that plausibly heal (5xx, 429,
// transport resets) and honors the server's Retry-After hint.
type ResilientCDSClient = server.ResilientClient

// ResilienceConfig parameterizes a ResilientCDSClient.
type ResilienceConfig = server.ResilienceConfig

// NewResilientCDSClient wraps c with the given resilience policy.
func NewResilientCDSClient(c *CDSClient, cfg ResilienceConfig) *ResilientCDSClient {
	return server.NewResilientClient(c, cfg)
}

// RetryBackoff computes exponential retry delays with deterministic
// seeded jitter: the delay is a pure function of (seed, call, attempt),
// so equal seeds replay byte-identical schedules.
type RetryBackoff = resilience.Backoff

// CircuitBreaker is a three-state (closed/open/half-open) circuit
// breaker with a bounded half-open probe budget.
type CircuitBreaker = resilience.Breaker

// CircuitBreakerConfig parameterizes a CircuitBreaker.
type CircuitBreakerConfig = resilience.BreakerConfig

// NewCircuitBreaker returns a closed breaker.
func NewCircuitBreaker(cfg CircuitBreakerConfig) *CircuitBreaker {
	return resilience.NewBreaker(cfg)
}

// ChaosConfig parameterizes the deterministic L7 fault injector: seeded
// per-(index, attempt) latency spikes, bounded 5xx bursts, connection
// resets, and slow response bodies.
type ChaosConfig = chaos.Config

// ChaosPlan is an immutable deterministic chaos oracle; wrap an HTTP
// transport with NewChaosTransport or a handler with chaos.Middleware.
type ChaosPlan = chaos.Plan

// NewChaosPlan validates cfg and builds a plan.
func NewChaosPlan(cfg ChaosConfig) (*ChaosPlan, error) { return chaos.NewPlan(cfg) }

// NewChaosTransport wraps base (nil = http.DefaultTransport) with the
// plan's fault injection. Only requests tagged via WithChaosIndex are
// eligible, so probes and scrapes stay clean.
func NewChaosTransport(plan *ChaosPlan, base http.RoundTripper) http.RoundTripper {
	return chaos.NewTransport(plan, base)
}

// WithChaosIndex tags ctx with a request's stream index, making requests
// issued under it eligible for a chaos transport's fault injection. The
// index is the deterministic coordinate of the request's fate.
func WithChaosIndex(ctx context.Context, index int) context.Context {
	return chaos.WithIndex(ctx, index)
}

// Wire types of the cdsd HTTP/JSON API.
type (
	ServerGraphSpec        = server.GraphSpec
	ServerComputeRequest   = server.ComputeRequest
	ServerComputeResponse  = server.ComputeResponse
	ServerVerifyRequest    = server.VerifyRequest
	ServerVerifyResponse   = server.VerifyResponse
	ServerSimulateRequest  = server.SimulateRequest
	ServerSimulateResponse = server.SimulateResponse
	ServerFaultSpec        = server.FaultSpec
	ServerCrashSpec        = server.CrashSpec
	ServerPolicyInfo       = server.PolicyInfo
	ServerReadiness        = server.ReadinessResponse
)

// --- Streaming topology sessions ---

// TopologySessionManager owns cdsd's long-lived incremental CDS sessions:
// lock-striped shards, admission limits with LRU eviction, an idle-TTL
// reaper, and per-session since-epoch change summaries. Each session
// wraps a MaintenanceSession (paper Section 2.2 localized maintenance).
type TopologySessionManager = topo.Manager

// TopologySessionConfig parameterizes a TopologySessionManager.
type TopologySessionConfig = topo.Config

// TopologySessionSnapshot is the full state of one session at an epoch.
type TopologySessionSnapshot = topo.Snapshot

// TopologySessionSummary aggregates the changes since a client-held epoch.
type TopologySessionSummary = topo.Summary

// NewTopologySessionManager starts the session subsystem (cdsd embeds one;
// standalone use is for tests and tools). Stop it with Close.
func NewTopologySessionManager(cfg TopologySessionConfig) *TopologySessionManager {
	return topo.NewManager(cfg)
}

// Sentinel errors of the session subsystem; test with errors.Is.
var (
	ErrSessionNotFound = topo.ErrNotFound // unknown, reaped, or evicted id
	ErrSessionInvalid  = topo.ErrInvalid  // malformed graph, batch, or energy input
	ErrSessionLimit    = topo.ErrLimit    // admission refused at capacity
)

// Wire types of the cdsd /v1/sessions HTTP/JSON API.
type (
	ServerSessionCreateRequest  = server.SessionCreateRequest
	ServerSessionChangesRequest = server.SessionChangesRequest
	ServerSessionEdgeChange     = server.SessionEdgeChange
	ServerSessionResponse       = server.SessionResponse
	ServerSessionChangeSummary  = server.SessionChangeSummary
	ServerSessionStats          = server.SessionStats
)

// LocalCDSServer is a cdsd instance bound to an ephemeral loopback
// listener — a real HTTP server without picking a port, for tests,
// examples, and self-driven load runs.
type LocalCDSServer = server.Local

// StartLocalCDSServer boots a server on 127.0.0.1:0 and serves it; stop
// it with Close.
func StartLocalCDSServer(cfg ServerConfig) (*LocalCDSServer, error) {
	return server.StartLocal(cfg)
}

// --- Load & conformance harness (loadgen) ---

// LoadOptions configures a deterministic load run: the request stream is
// a pure function of (options, seed, index), so the same seed issues the
// same requests — and reaches the same conformance verdicts — at any
// worker count. See cmd/loadgen for the CLI.
type LoadOptions = load.Options

// LoadMix weights the compute/verify/simulate request kinds.
type LoadMix = load.Mix

// LoadAxes are the workload dimensions (topology sizes, radii, policies).
type LoadAxes = load.Axes

// LoadSLO declares the pass/fail gates a load run must meet.
type LoadSLO = load.SLO

// LoadReport is the machine-readable outcome of a load run (the
// LOAD_*.json artifact), including per-endpoint outcome counts, the
// conformance cross-check, and the /metrics cache delta.
type LoadReport = load.Report

// LoadMismatch is one conformance divergence between a cdsd response and
// the in-process oracle.
type LoadMismatch = load.Mismatch

// RunLoad drives the cdsd server at baseURL with the configured seeded
// workload and assembles the report. With Conformance set, sampled
// responses are recomputed in-process through the same library entry
// points the handlers use and compared field by field.
func RunLoad(ctx context.Context, baseURL string, opts LoadOptions) (*LoadReport, error) {
	return load.Run(ctx, baseURL, opts)
}

// GenerateLoadRequest synthesizes request i of a load stream — a pure
// function of (opts, i), exposed for tools that need to inspect or replay
// a stream outside Run. opts must be the same value Run was (or will be)
// given.
func GenerateLoadRequest(opts LoadOptions, i int) *load.Request { return load.Generate(opts, i) }

// SessionLoadOptions configures a streaming-session load run: concurrent
// sessions, delta batches per session, and the conformance oracle. Every
// session's initial topology and batch stream is a pure function of
// (options, session index, batch index).
type SessionLoadOptions = load.SessionOptions

// SessionLoadReport summarizes the session-specific outcomes of a run
// (batches applied, link changes streamed, snapshots taken, desyncs).
type SessionLoadReport = load.SessionsReport

// RunSessionLoad drives cdsd's /v1/sessions API with the configured
// deterministic delta streams. With Conformance set, every sampled
// snapshot is replayed against an in-process MaintenanceSession fed the
// identical history and compared field by field (exact equality is sound
// because maintained-protocol outcomes are deterministic for a shared
// history; see DESIGN.md section 12).
func RunSessionLoad(ctx context.Context, baseURL string, opts SessionLoadOptions) (*LoadReport, error) {
	return load.RunSessions(ctx, baseURL, opts)
}

// SessionLoadStreamDigest fingerprints the entire synthesized session
// workload (topologies, batches, energy updates); equal options yield
// equal digests at any worker count.
func SessionLoadStreamDigest(opts SessionLoadOptions) uint64 {
	return load.SessionStreamDigest(opts)
}

// MetricsSample is one parsed Prometheus exposition sample.
type MetricsSample = metrics.Sample

// MetricsScrape is a parsed /metrics exposition.
type MetricsScrape = metrics.Scrape

// ParseMetricsText parses a Prometheus text exposition (as served by
// cdsd's /metrics) into samples queryable by name and labels.
func ParseMetricsText(r io.Reader) (MetricsScrape, error) { return metrics.ParseText(r) }

// --- Observability (tracing & structured logging) ---

// TracerConfig parameterizes a request tracer: ring capacity (0 disables
// tracing entirely), lock-stripe count, id seed, and an injectable clock
// for deterministic span trees. Pass one in ServerConfig.Tracing to give
// a cdsd a /debug/traces ring.
type TracerConfig = obs.TracerConfig

// Tracer records request traces into a bounded in-process ring. A nil
// Tracer is valid and ignores every call, so instrumented code pays
// nothing when tracing is disabled.
type Tracer = obs.Tracer

// TraceRecord is one completed request trace: id, name, status, root
// attributes, and the flat list of stage spans.
type TraceRecord = obs.TraceRecord

// TraceSpanRecord is one completed stage span within a trace.
type TraceSpanRecord = obs.SpanRecord

// TraceFilter selects traces from a ring snapshot (by name, id, minimum
// duration, last-n).
type TraceFilter = obs.Filter

// NewTracer returns a tracer retaining the last cfg.Capacity completed
// traces, or nil (tracing disabled) when cfg.Capacity <= 0.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// FormatTraceID renders a trace id as the 16-hex-digit wire form carried
// in the X-Trace-Id header; ParseTraceID is its inverse.
func FormatTraceID(id uint64) string { return obs.FormatTraceID(id) }

// ParseTraceID parses the 16-hex-digit wire form of a trace id.
func ParseTraceID(s string) (uint64, bool) { return obs.ParseTraceID(s) }

// NewLogger returns a leveled key=value text logger writing to w —
// the logger cdsd and loadgen use. LoggerOptions.NoTime drops the time
// attribute for byte-reproducible output.
func NewLogger(w io.Writer, opts LoggerOptions) *slog.Logger { return obs.NewLogger(w, opts) }

// LoggerOptions shape NewLogger's output.
type LoggerOptions = obs.LoggerOptions

// ParseLogLevel maps a -log-level flag value (debug, info, warn, error)
// onto a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) { return obs.ParseLevel(s) }

// LoadTraceID derives the deterministic trace id the load harness pins
// on request i of a traced run (LoadOptions.Trace) — a pure function of
// (seed, index), never zero.
func LoadTraceID(seed uint64, i int) uint64 { return load.TraceID(seed, i) }
