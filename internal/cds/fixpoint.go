package cds

import "pacds/internal/graph"

// Fixpoint rule application.
//
// ApplyRulesFixpoint returns the fixpoint of the policy's rule pair: a
// gateway set in which no marked node is eligible for removal. The paper
// applies each rule once per update interval; iterating to stability is a
// natural strengthening, and each individual removal still preserves the
// CDS (same argument as the single pass), so the fixpoint is a CDS too.
//
// Monotonicity theorem: one sequential pass IS the fixpoint. Every rule
// template — Rule 1, both Rule 2 forms, and Rule k — unmarks v only when
// some set of CURRENTLY-MARKED neighbors covers v's neighborhood; the
// remaining inputs (adjacency, the priority order) are static. Node v's
// eligibility is therefore monotone non-decreasing in the gateway set:
// shrinking the set can only remove coverers, never add them. Rule
// application only shrinks the set. The sequential pass evaluates each
// node against a gateway state that is a superset of every later state,
// so a node found ineligible stays ineligible through the end of the pass
// and forever after — no confirming pass can find anything. The full
// re-scan reference (ApplyRulesFixpointRescan, kept in this package's
// tests) pays at least one O(n · deg²) pass to discover that stability
// empirically; TestFixpointMatchesRescan checks the theorem against it on
// random topologies for every policy.
//
// The theorem is about removals under a FIXED graph and priority order.
// When the inputs change — links appear or disappear, energy levels move —
// eligibility can increase, and only slots near the change need
// re-deciding. That incremental case is Rules.Resweep (engine.go).

// ApplyRulesFixpoint applies the policy's rules to a fixpoint. Returns
// the gateway set and the number of rule rounds executed (always 1: per
// the monotonicity theorem above, the sequential pass is the fixpoint).
func ApplyRulesFixpoint(g *graph.Graph, p Policy, marked []bool, energy []float64) ([]bool, int, error) {
	out, err := ApplyRules(g, p, marked, energy)
	if err != nil {
		return nil, 0, err
	}
	return out, 1, nil
}
