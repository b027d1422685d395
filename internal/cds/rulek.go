package cds

import "pacds/internal/graph"

// Rule k — the generalization of Rules 1 and 2 to an arbitrary number of
// coverers, following the direction of Wu's later work (Dai & Wu's
// extended localized algorithm). The ICPP 2001 paper's rules consider one
// coverer (Rule 1) or two (Rule 2); Rule k unmarks a gateway v when the
// closed-neighborhood union of ANY connected set of currently-marked
// higher-priority neighbors covers N(v):
//
//	∃ C ⊆ { u ∈ N(v) : marked(u), v < u in priority } such that
//	G[C] is connected and N(v) ⊆ ∪_{u ∈ C} N[u].
//
// Coverage uses CLOSED neighborhoods (a coverer covers itself), which is
// what makes Rule 1 the |C| = 1 special case: N(v) ⊆ N[u] is exactly
// N[v] ⊆ N[u] given that u and v are adjacent.
//
// The connectivity requirement on C is what lets any G'-path through v be
// rerouted inside C; the higher-priority requirement gives the removal
// chains a well-founded order. It suffices to test one canonical C per v:
// the union over a connected component of eligible neighbors is maximal,
// so v is removable iff some component of the eligible-neighbor subgraph
// covers N(v).
//
// This is provided as an extension (it is this paper's "future work"
// lineage, not part of its evaluation); the ablation experiment and
// benchmarks compare its pruning power against Rules 1+2.

// ApplyRuleK applies Rule k sequentially (current-state semantics, like
// ApplyRules) using the policy's priority order, and returns the resulting
// gateway set. NR returns the marking unchanged.
func ApplyRuleK(g *graph.Graph, p Policy, marked []bool, energy []float64) ([]bool, error) {
	out, r, err := begin(g, p, marked, energy, nil)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	r.k = &ruleKScratch{eligible: make([]bool, n), comp: make([]int, n)}
	r.sweep(ruleK, out, out, slots{})
	return out, nil
}

// ruleKScratch holds the per-slot buffers of the Rule-k predicate, reused
// across slots.
type ruleKScratch struct {
	eligible []bool
	comp     []int
	stack    []graph.NodeID
}

// ruleK reports whether v's Rule-k slot fires: some connected component of
// v's higher-priority gateway neighbors covers N(v).
func (r *Rules) ruleK(before, after []bool, v graph.NodeID) bool {
	g, k := r.g, r.k
	nb := g.Neighbors(v)

	// Eligible coverers: gateway neighbors with higher priority than v.
	count := 0
	for _, u := range nb {
		el := statusAt(before, after, v, u) && r.less(v, u)
		k.eligible[u] = el
		if el {
			k.comp[u] = -1
			count++
		}
	}
	if count == 0 {
		return false
	}

	// Label connected components of the eligible set (connectivity
	// within G restricted to eligible nodes).
	nextComp := 0
	for _, u := range nb {
		if !k.eligible[u] || k.comp[u] != -1 {
			continue
		}
		k.comp[u] = nextComp
		k.stack = append(k.stack[:0], u)
		for len(k.stack) > 0 {
			x := k.stack[len(k.stack)-1]
			k.stack = k.stack[:len(k.stack)-1]
			for _, y := range g.Neighbors(x) {
				if k.eligible[y] && k.comp[y] == -1 {
					k.comp[y] = nextComp
					k.stack = append(k.stack, y)
				}
			}
		}
		nextComp++
	}

	// For each component, check whether its union covers N(v).
	fires := coveredByComponent(g, v, nb, k.eligible, k.comp, nextComp)

	// Reset eligibility marks for the next slot.
	for _, u := range nb {
		k.eligible[u] = false
	}
	return fires
}

// coveredByComponent reports whether some eligible component's closed-
// neighborhood union covers N(v). For each x in N(v), determine which
// components cover x (x is an eligible member of the component, or is
// adjacent to one); a component covers v iff it covers every x.
func coveredByComponent(g *graph.Graph, v graph.NodeID, nb []graph.NodeID,
	eligible []bool, comp []int, numComp int) bool {
	if numComp == 0 {
		return false
	}
	// covers[c] counts how many of v's neighbors component c covers; a
	// neighbor may be covered by several components, so deduplicate per
	// neighbor with a last-touched stamp.
	covers := make([]int, numComp)
	stamp := make([]int, numComp)
	for i := range stamp {
		stamp[i] = -1
	}
	mark := func(c, idx int) {
		if stamp[c] != idx {
			stamp[c] = idx
			covers[c]++
		}
	}
	for idx, x := range nb {
		if eligible[x] {
			mark(comp[x], idx) // x covers itself (closed neighborhood)
		}
		for _, u := range g.Neighbors(x) {
			if eligible[u] {
				mark(comp[u], idx)
			}
		}
	}
	for c := 0; c < numComp; c++ {
		if covers[c] == len(nb) {
			return true
		}
	}
	return false
}
