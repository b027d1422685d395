package cds

import "pacds/internal/graph"

// Rule application.
//
// The rules examine the markers produced by the marking process and
// selectively change gateways back to non-gateways. The paper's
// correctness argument is per removal: "it is easy to prove that G' - {v}
// is still a connected dominating set" — i.e. each unmarking is justified
// against the gateway set as it stands when the unmarking happens. We
// therefore apply the rules sequentially, in ascending node-ID order, with
// every premise ("u and w are two MARKED neighbors of v") evaluated
// against the current gateway state. Each individual removal provably
// preserves both domination (N(v) stays covered by the still-marked
// coverers) and connectivity (any G'-path through v reroutes via the
// adjacent pair u, w), so the final set is always a CDS regardless of the
// priority key.
//
// A fully-simultaneous snapshot semantics — every host deciding from the
// same post-marking broadcast — is NOT safe for the generalized Rules
// 2a/2b/2b': case 1 removes v unconditionally while its coverer u may
// simultaneously remove itself via a different pair, leaving a node
// undominated. (Property tests in this package demonstrated exactly that
// before the sequential semantics was adopted; the original ID-keyed rules
// do not exhibit it because the min-ID guard orders every removal chain.)
// In a real deployment the serialization is provided by the gateway-status
// broadcasts the paper describes: a host that unmarks itself announces it,
// and its neighbors re-evaluate with current information.
//
// Two structural templates cover all eight rules in the paper:
//
//   - Rule 1 template (Rules 1, 1a, 1b, 1b'): marked v unmarks itself if
//     some marked neighbor u has N[v] ⊆ N[u] and v precedes u in the
//     priority order.
//
//   - Rule 2 template (Rules 2a, 2b, 2b'): marked v with marked neighbors
//     u, w and N(v) ⊆ N(u) ∪ N(w) unmarks itself according to the
//     three-case mutual-coverage analysis (see rule2Covered in slots.go).
//
//   - The original Rule 2 (ID) predates the three-case analysis: v unmarks
//     itself iff N(v) ⊆ N(u) ∪ N(w) and id(v) = min{id(v), id(u), id(w)}.
//
// Every entry point below binds the policy's rules once and runs them
// through the rule engine (engine.go).

// Result is the outcome of running the marking process and a policy's
// rules over a graph.
type Result struct {
	// Policy that produced this result.
	Policy Policy
	// Marked is the raw marking-process output m(v).
	Marked []bool
	// Gateway is the final gateway status after rule application. For NR
	// it equals Marked.
	Gateway []bool
}

// NumGateways returns |G'|, the number of gateway hosts.
func (r *Result) NumGateways() int {
	n := 0
	for _, g := range r.Gateway {
		if g {
			n++
		}
	}
	return n
}

// GatewayIDs returns the sorted list of gateway node ids.
func (r *Result) GatewayIDs() []graph.NodeID {
	var ids []graph.NodeID
	for v, g := range r.Gateway {
		if g {
			ids = append(ids, graph.NodeID(v))
		}
	}
	return ids
}

// Compute runs the marking process and then the policy's rules. energy is
// required (length == g.NumNodes()) for EL1 and EL2 and ignored otherwise.
func Compute(g *graph.Graph, p Policy, energy []float64) (*Result, error) {
	marked := Mark(g)
	gateway, err := ApplyRules(g, p, marked, energy)
	if err != nil {
		return nil, err
	}
	return &Result{Policy: p, Marked: marked, Gateway: gateway}, nil
}

// MustCompute is Compute for callers with statically-valid arguments; it
// panics on error.
func MustCompute(g *graph.Graph, p Policy, energy []float64) *Result {
	r, err := Compute(g, p, energy)
	if err != nil {
		panic(err)
	}
	return r
}

// ApplyRules applies the policy's pruning rules to a marking-process
// snapshot and returns the resulting gateway statuses. The snapshot is not
// modified.
func ApplyRules(g *graph.Graph, p Policy, marked []bool, energy []float64) ([]bool, error) {
	out, r, err := begin(g, p, marked, energy, nil)
	if err != nil {
		return nil, err
	}
	r.apply(out, nil)
	return out, nil
}

// ApplyRule1Only and ApplyRule2Only exist for the ablation benchmarks: they
// apply a single rule of the policy's pair.

// ApplyRule1Only applies only the Rule 1 template (or original Rule 1 for
// ID).
func ApplyRule1Only(g *graph.Graph, p Policy, marked []bool, energy []float64) ([]bool, error) {
	out, r, err := begin(g, p, marked, energy, nil)
	if err != nil {
		return nil, err
	}
	r.sweep(rule1, out, out, slots{})
	return out, nil
}

// ApplyRule2Only applies only the Rule 2 template (or original Rule 2 for
// ID).
func ApplyRule2Only(g *graph.Graph, p Policy, marked []bool, energy []float64) ([]bool, error) {
	out, r, err := begin(g, p, marked, energy, nil)
	if err != nil {
		return nil, err
	}
	r.sweep(r.rule2, out, out, slots{})
	return out, nil
}

// begin is the shared entry of the public rule functions: it checks the
// marking's length, copies it into dst (allocated when nil) and binds the
// policy's rules.
func begin(g *graph.Graph, p Policy, marked []bool, energy []float64, dst []bool) ([]bool, Rules, error) {
	if len(marked) != g.NumNodes() {
		panic("cds: marked slice length mismatch")
	}
	if dst == nil {
		dst = make([]bool, len(marked))
	}
	copy(dst, marked)
	r, err := Bind(g, p, energy)
	return dst, r, err
}
