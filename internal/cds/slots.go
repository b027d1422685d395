package cds

import "pacds/internal/graph"

// Slot predicates under the split view.
//
// The sequential semantics of ApplyRules (see rules.go) walks the nodes in
// ascending ID order with every premise judged against the gateway state
// as it stands at that node's slot. When the whole sweep runs over one
// in-place array, that state is implicit: entries below the cursor already
// hold their post-sweep value, entries at or above it still hold their
// pre-sweep value. A sweep that re-runs only a subset of slots (the
// session's frontier) keeps the two halves of that view in separate
// arrays — `after` for decided slots (u < v) and `before` for undecided
// ones (u >= v). The predicates below read the view through statusAt;
// whole-graph sweeps pass the same array twice.

// statusAt reads node u's gateway status as seen from node v's slot.
func statusAt(before, after []bool, v, u graph.NodeID) bool {
	if u < v {
		return after[u]
	}
	return before[u]
}

// rule1 reports whether v's Rule-1 slot fires (Rules 1, 1a, 1b, 1b'):
// some gateway neighbor u with less(v, u) has N[v] ⊆ N[u]. The rule is
// stated on G', so the covering node u must currently be a gateway.
func (r *Rules) rule1(before, after []bool, v graph.NodeID) bool {
	g, less := r.g, r.less
	for _, u := range g.Neighbors(v) {
		if statusAt(before, after, v, u) && less(v, u) && g.ClosedSubset(v, u) {
			return true
		}
	}
	return false
}

// rule2ID reports whether v's slot fires under the original ID-keyed
// Rule 2: two gateway neighbors u, w cover N(v) and v has the minimum ID
// of the three. The min-ID guard skips every neighbor below v, so only
// before values are ever read.
func (r *Rules) rule2ID(before []bool, v graph.NodeID) bool {
	g := r.g
	nb := g.Neighbors(v)
	for i := 0; i < len(nb); i++ {
		u := nb[i]
		if u < v || !before[u] {
			// id(v) must be the minimum of the three, so any marked
			// neighbor with a smaller ID disqualifies the pair that
			// includes it. Skipping u < v is not just an optimization:
			// it enforces the min-ID condition for u.
			continue
		}
		for j := i + 1; j < len(nb); j++ {
			w := nb[j]
			if w < v || !before[w] {
				continue
			}
			if g.OpenSubsetOfUnion(v, u, w) {
				return true
			}
		}
	}
	return false
}

// rule2Priority reports whether v's slot fires under the Rule 2a/2b/2b'
// template: some pair of gateway neighbors passes rule2Covered.
func (r *Rules) rule2Priority(before, after []bool, v graph.NodeID) bool {
	g, less := r.g, r.less
	nb := g.Neighbors(v)
	for i := 0; i < len(nb); i++ {
		u := nb[i]
		if !statusAt(before, after, v, u) {
			continue
		}
		for j := i + 1; j < len(nb); j++ {
			w := nb[j]
			if !statusAt(before, after, v, w) {
				continue
			}
			if rule2Covered(g, v, u, w, less) {
				return true
			}
		}
	}
	return false
}

// rule2Covered reports whether marked node v may unmark itself given the
// marked neighbor pair {u, w}, per the three-case analysis shared by Rules
// 2a, 2b and 2b' (with the priority order supplying the nd/el/id
// comparisons):
//
//	case 1: v covered by (u,w); neither u nor w covered by the other two
//	        → unmark v unconditionally.
//	case 2: v and exactly one of {u,w} covered (call it x); the other not
//	        → unmark v iff v precedes x in the priority order.
//	case 3: all three mutually covered
//	        → unmark v iff v is the strict priority minimum of the three.
//
// The case conditions in the paper are written for a fixed labeling of u
// and w; because the pair is unordered we canonicalize by which of the two
// is covered. The paper's per-case condition lists (e.g. Rule 2a case 3's
// "nd(v) < nd(u) and nd(v) < nd(w)", "nd(v) = nd(u) < nd(w) and
// id(v) < id(u)", "all equal and id(v) minimal") are exactly "v is the
// strict lexicographic minimum", which is what the Less order computes.
func rule2Covered(g *graph.Graph, v, u, w graph.NodeID, less Less) bool {
	if !g.OpenSubsetOfUnion(v, u, w) {
		return false
	}
	cu := g.OpenSubsetOfUnion(u, v, w)
	cw := g.OpenSubsetOfUnion(w, u, v)
	switch {
	case !cu && !cw: // case 1
		return true
	case cu && !cw: // case 2 with x = u
		return less(v, u)
	case !cu && cw: // case 2 with x = w
		return less(v, w)
	default: // case 3
		return less(v, u) && less(v, w)
	}
}
