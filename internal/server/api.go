package server

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"pacds/internal/cds"
	"pacds/internal/faults"
)

// Wire types of the HTTP/JSON API. Field names are stable; additions must
// be backward compatible (new optional fields only).

// GraphSpec is the wire form of a topology: a node count and an
// undirected edge list.
type GraphSpec struct {
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
	// buf is the request scanner's form of an edge list whose every
	// endpoint is in [0, Nodes) and whose edges are loop-free, flat in a
	// pooled buffer. The scanner leaves Edges nil when it sets buf.
	buf *edgeBuf
}

// edgeList validates the spec and returns its edges flat, in a pooled
// buffer that the caller then owns (see edgeBuf): the scanner's buffer
// as it is, or a new one holding Edges, which encoding/json and Go
// callers fill, checked and flattened. The first bad edge is the error;
// with an error, the scanner's buffer has gone back to the pool.
// maxNodes guards the service against memory-exhaustion requests.
func (s GraphSpec) edgeList(maxNodes int) (*edgeBuf, error) {
	if s.Nodes < 0 {
		s.release()
		return nil, fmt.Errorf("nodes must be non-negative, got %d", s.Nodes)
	}
	if maxNodes > 0 && s.Nodes > maxNodes {
		s.release()
		return nil, fmt.Errorf("nodes %d exceeds the service limit %d", s.Nodes, maxNodes)
	}
	if s.Edges == nil {
		if s.buf != nil {
			return s.buf, nil
		}
		return getEdgeBuf(0), nil
	}
	buf := getEdgeBuf(2 * len(s.Edges))
	for i, e := range s.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= s.Nodes || v < 0 || v >= s.Nodes {
			buf.put()
			return nil, fmt.Errorf("edge %d: %d-%d out of range [0, %d)", i, u, v, s.Nodes)
		}
		if u == v {
			buf.put()
			return nil, fmt.Errorf("edge %d: self loop %d-%d", i, u, v)
		}
		buf.flat = append(buf.flat, int32(u), int32(v))
	}
	return buf, nil
}

// release hands back the scanner's buffer of a request rejected before
// edgeList.
func (s GraphSpec) release() {
	if s.buf != nil {
		s.buf.put()
	}
}

// CrashSpec schedules one host failure in a fault scenario.
type CrashSpec struct {
	Node      int `json:"node"`
	AtRound   int `json:"at_round"`
	RecoverAt int `json:"recover_at,omitempty"`
}

// FaultSpec asks the compute endpoint to run the hardened fault-tolerant
// protocol instead of the centralized algorithm: "what does the surviving
// CDS look like under drop rate p".
type FaultSpec struct {
	Drop      float64     `json:"drop"`
	Duplicate float64     `json:"duplicate,omitempty"`
	Seed      uint64      `json:"seed"`
	Crashes   []CrashSpec `json:"crashes,omitempty"`
}

func (f *FaultSpec) plan() (*faults.Plan, error) {
	cfg := faults.Config{Seed: f.Seed, Drop: f.Drop, Duplicate: f.Duplicate}
	for _, c := range f.Crashes {
		cfg.Crashes = append(cfg.Crashes, faults.Crash{Node: c.Node, AtRound: c.AtRound, RecoverAt: c.RecoverAt})
	}
	return faults.NewPlan(cfg)
}

// ComputeRequest asks for a CDS of the given topology under a policy.
type ComputeRequest struct {
	Graph  GraphSpec `json:"graph"`
	Policy string    `json:"policy"`
	// Energy is the per-node battery level, required for EL1/EL2.
	Energy []float64 `json:"energy,omitempty"`
	// IncludeMarked also returns the raw marking-process output.
	IncludeMarked bool `json:"include_marked,omitempty"`
	// Faults switches to the hardened distributed protocol over a faulty
	// radio. Fault runs bypass the result cache (they are scenario
	// explorations, not steady-state serving).
	Faults *FaultSpec `json:"faults,omitempty"`
}

// ComputeResponse reports the gateway set.
type ComputeResponse struct {
	Policy      string `json:"policy"`
	Nodes       int    `json:"nodes"`
	NumGateways int    `json:"num_gateways"`
	Gateways    []int  `json:"gateways"`
	Marked      []int  `json:"marked,omitempty"`
	// Alive lists surviving hosts after a fault run (nil otherwise).
	Alive []int `json:"alive,omitempty"`
	// Retransmissions/Evictions are hardened-protocol costs (fault runs).
	Retransmissions int `json:"retransmissions,omitempty"`
	Evictions       int `json:"evictions,omitempty"`
	// Cached reports a result served from the LRU cache; Coalesced one
	// shared with a concurrent identical request.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	// Degraded marks a brownout response: the server was overloaded and
	// served the most recent cached result (possibly stale) instead of
	// shedding the request. Degraded implies Cached.
	Degraded bool `json:"degraded,omitempty"`
}

// VerifyRequest asks whether a gateway set is a CDS of the topology.
type VerifyRequest struct {
	Graph    GraphSpec `json:"graph"`
	Gateways []int     `json:"gateways"`
}

// VerifyResponse reports validity plus the backbone quality metrics of
// cds.Analyze.
type VerifyResponse struct {
	Valid              bool    `json:"valid"`
	Reason             string  `json:"reason,omitempty"`
	NumGateways        int     `json:"num_gateways"`
	BackboneDiameter   int     `json:"backbone_diameter"`
	ArticulationPoints int     `json:"articulation_points"`
	MeanRedundancy     float64 `json:"mean_redundancy"`
}

// SimulateRequest asks for a lifetime simulation on the paper's field.
type SimulateRequest struct {
	N      int    `json:"n"`
	Policy string `json:"policy"`
	Drain  string `json:"drain"`
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials,omitempty"`
	Static bool   `json:"static,omitempty"`
}

// SimulateResponse reports lifetime metrics; aggregate fields are set
// when Trials > 1.
type SimulateResponse struct {
	Policy        string  `json:"policy"`
	Drain         string  `json:"drain"`
	Trials        int     `json:"trials"`
	Lifetime      float64 `json:"lifetime"`
	LifetimeMin   float64 `json:"lifetime_min,omitempty"`
	LifetimeMax   float64 `json:"lifetime_max,omitempty"`
	MeanGateways  float64 `json:"mean_gateways"`
	TruncatedRuns int     `json:"truncated_runs,omitempty"`
}

// PolicyInfo describes one pruning policy for /v1/policies.
type PolicyInfo struct {
	Name        string `json:"name"`
	NeedsEnergy bool   `json:"needs_energy"`
	Description string `json:"description"`
}

// ReadinessResponse is the body of /healthz/ready: whether the server
// is accepting work, and the queue/brownout state behind that verdict.
type ReadinessResponse struct {
	// Status is "ready", "draining", or "saturated".
	Status string `json:"status"`
	// QueueDepth and QueueCapacity describe the worker-pool job queue;
	// readiness requires depth < capacity.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Inflight is the number of requests currently being served.
	Inflight int `json:"inflight"`
	// Brownout lists the endpoints configured to degrade under overload.
	Brownout []string `json:"brownout,omitempty"`
	// SessionsActive/SessionsMax report streaming-session load: how many
	// maintained topologies are live against the admission cap.
	SessionsActive int `json:"sessions_active"`
	SessionsMax    int `json:"sessions_max"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// policyDescriptions matches cds.Policies order.
var policyDescriptions = map[cds.Policy]string{
	cds.NR:  "marking process only, no pruning rules",
	cds.ID:  "original Wu-Li Rules 1 and 2 (node ID priority)",
	cds.ND:  "Rules 1a/2a (node degree priority, smaller CDS)",
	cds.EL1: "Rules 1b/2b (energy level priority, ID tie-break)",
	cds.EL2: "Rules 1b'/2b' (energy level priority, degree then ID tie-break)",
}

// cacheKey derives the canonical cache key for a compute request: the
// graph digest, the policy, and — only for energy-aware policies — the
// energy vector quantized to quantum steps. Quantization makes the key
// stable across the tiny per-interval drains that do not change the
// computed CDS tier, which is what turns a continuously-draining serving
// workload into a cacheable one. digest is graph.Digest of the request's
// graph of n nodes, which edgeBuf.digest reads off its edge list.
func cacheKey(digest uint64, n int, p cds.Policy, energy []float64, quantum float64) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], digest)
	h.Write(buf[:])
	h.Write([]byte{byte(p)})
	if p.NeedsEnergy() {
		if quantum <= 0 {
			quantum = 1
		}
		for _, e := range energy {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(math.Round(e/quantum))))
			h.Write(buf[:])
		}
	}
	// Hand-rolled key assembly: fmt.Sprintf costs three allocations on
	// the hottest endpoint; strconv appends into one stack buffer cost
	// one (the final string).
	key := make([]byte, 0, 40)
	key = append(key, 'c', '|')
	key = strconv.AppendInt(key, int64(n), 10)
	key = append(key, '|')
	key = strconv.AppendUint(key, h.Sum64(), 16)
	return string(key)
}

// boolsToIDs converts a membership slice to a sorted id list for the wire.
func boolsToIDs(member []bool) []int {
	ids := make([]int, 0, len(member))
	for v, in := range member {
		if in {
			ids = append(ids, v)
		}
	}
	return ids
}

// idsToBools converts a wire id list back to a membership slice.
func idsToBools(n int, ids []int) ([]bool, error) {
	member := make([]bool, n)
	for _, id := range ids {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("gateway id %d out of range [0, %d)", id, n)
		}
		member[id] = true
	}
	return member, nil
}
