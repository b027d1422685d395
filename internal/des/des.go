// Package des is a discrete-event simulator for the ASYNCHRONOUS
// execution of the pruning rules. The package exists to answer a
// correctness question the paper leaves implicit: what happens when hosts
// apply the rules concurrently, with real transmission delays, instead of
// in the serialized order the one-removal-at-a-time argument assumes?
//
// Model: the marking phase has completed (markers are topology-only and
// unaffected by ordering). Each host then evaluates its rules once, at a
// random local time in [0, JitterSpan); an unmark decision is broadcast
// and arrives at each neighbor after an independent exponential-ish delay
// with mean MeanDelay. A host evaluates with whatever neighbor statuses
// have ARRIVED by its evaluation time — in-flight unmarks are invisible,
// so two mutually-covering hosts can both remove themselves.
//
// The headline measurement (experiments "async"): the original ID rules
// never violate the CDS property under this model (their strict-minimum
// guards order every removal), while the generalized Rules 2a/2b/2b'
// violate it at a measurable rate — the experimental justification for
// the serialized semantics used everywhere else in this repository.
package des

import (
	"container/heap"
	"fmt"
	"math"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/xrand"
)

// Config parameterizes one asynchronous run.
type Config struct {
	// Policy selects the rule set (NR is a no-op).
	Policy cds.Policy
	// JitterSpan is the width of the uniform window in which hosts pick
	// their rule-evaluation times.
	JitterSpan float64
	// MeanDelay is the mean one-hop transmission delay for status
	// broadcasts.
	MeanDelay float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns an asynchronous setup where delays are
// substantial relative to the evaluation window — the adversarial regime.
func DefaultConfig(p cds.Policy, seed uint64) Config {
	return Config{Policy: p, JitterSpan: 1, MeanDelay: 0.5, Seed: seed}
}

// Result reports one asynchronous execution.
type Result struct {
	// Gateway is the final status assignment.
	Gateway []bool
	// Unmarked counts hosts that removed themselves.
	Unmarked int
	// FinishTime is the time of the last delivered event.
	FinishTime float64
	// Violation is non-nil when the final set is NOT a connected
	// dominating set — the asynchronous failure mode under study.
	Violation error
}

// event is a scheduled occurrence.
type event struct {
	at   float64
	kind int // 0 = evaluate rules at node a; 1 = unmark arrival from b at a
	a, b graph.NodeID
}

type eventQueue []event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Run executes one asynchronous rule phase over g. energy is required for
// EL1/EL2.
func Run(g *graph.Graph, cfg Config, energy []float64) (*Result, error) {
	n := g.NumNodes()
	if cfg.Policy.NeedsEnergy() && len(energy) != n {
		return nil, fmt.Errorf("des: policy %v needs energy for all %d nodes, got %d", cfg.Policy, n, len(energy))
	}
	if cfg.JitterSpan <= 0 {
		return nil, fmt.Errorf("des: JitterSpan must be positive, got %v", cfg.JitterSpan)
	}
	if cfg.MeanDelay < 0 {
		return nil, fmt.Errorf("des: negative MeanDelay %v", cfg.MeanDelay)
	}

	marked := cds.Mark(g)
	res := &Result{Gateway: append([]bool(nil), marked...)}
	if cfg.Policy == cds.NR {
		res.Violation = cds.VerifyCDS(g, res.Gateway)
		return res, nil
	}
	rules, err := cds.Bind(g, cfg.Policy, energy)
	if err != nil {
		return nil, err
	}

	rng := xrand.New(cfg.Seed)
	// view[v][u] is v's belief about u's gateway status (u ∈ N(v)); local
	// lays the evaluating host's view out by node id for the rules.
	view := make([]map[graph.NodeID]bool, n)
	local := make([]bool, n)
	for v := 0; v < n; v++ {
		view[v] = make(map[graph.NodeID]bool, g.Degree(graph.NodeID(v)))
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			view[v][u] = marked[u]
		}
	}

	var pq eventQueue
	heap.Init(&pq)
	for v := 0; v < n; v++ {
		if marked[v] {
			heap.Push(&pq, event{at: rng.Float64() * cfg.JitterSpan, kind: 0, a: graph.NodeID(v)})
		}
	}

	expDelay := func() float64 {
		if cfg.MeanDelay == 0 {
			return 0
		}
		// Inverse-CDF exponential with mean MeanDelay.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return -cfg.MeanDelay * math.Log(u)
	}

	for pq.Len() > 0 {
		e := heap.Pop(&pq).(event)
		res.FinishTime = e.at
		switch e.kind {
		case 0:
			v := e.a
			if !res.Gateway[v] {
				continue
			}
			for _, u := range g.Neighbors(v) {
				local[u] = view[v][u]
			}
			if rules.Fires(local, v) {
				res.Gateway[v] = false
				res.Unmarked++
				for _, u := range g.Neighbors(v) {
					heap.Push(&pq, event{at: e.at + expDelay(), kind: 1, a: u, b: v})
				}
			}
		case 1:
			view[e.a][e.b] = false
		}
	}
	res.Violation = cds.VerifyCDS(g, res.Gateway)
	return res, nil
}

// ViolationRate runs trials independent asynchronous executions on fresh
// topologies produced by gen and returns the fraction whose final set
// violates the CDS property.
func ViolationRate(gen func(seed uint64) *graph.Graph, cfg Config, trials int) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("des: trials must be positive")
	}
	rng := xrand.New(cfg.Seed)
	violations := 0
	for i := 0; i < trials; i++ {
		g := gen(rng.Uint64())
		c := cfg
		c.Seed = rng.Uint64()
		var energy []float64
		if cfg.Policy.NeedsEnergy() {
			energy = make([]float64, g.NumNodes())
			for j := range energy {
				energy[j] = float64(rng.IntRange(1, 10)) * 10
			}
		}
		r, err := Run(g, c, energy)
		if err != nil {
			return 0, err
		}
		if r.Violation != nil {
			violations++
		}
	}
	return float64(violations) / float64(trials), nil
}
