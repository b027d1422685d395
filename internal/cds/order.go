package cds

import "pacds/internal/graph"

// Order-sensitivity analysis.
//
// The sequential rule semantics processes hosts in ascending ID order. In
// a real distributed execution the serialization comes from broadcast
// timing, which is arbitrary. ApplyRulesOrdered applies the rules in a
// caller-chosen order so experiments can measure how much the final CDS
// depends on the serialization — each removal preserves the CDS
// regardless of order (the paper's one-at-a-time argument), so only the
// SIZE and composition can vary, never correctness.

// ApplyRulesOrdered is ApplyRules with an explicit processing order: a
// permutation of [0, n). Rule 1 is swept in the given order, then Rule 2.
func ApplyRulesOrdered(g *graph.Graph, p Policy, marked []bool, energy []float64,
	order []graph.NodeID) ([]bool, error) {
	if len(order) != g.NumNodes() {
		panic("cds: order length mismatch")
	}
	out, r, err := begin(g, p, marked, energy, nil)
	if err != nil {
		return nil, err
	}
	r.apply(out, order)
	return out, nil
}
