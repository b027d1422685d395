package cds

import (
	"slices"
	"sort"

	"pacds/internal/graph"
)

// The rule engine.
//
// Every caller of the pruning rules decides slots through one bound rule
// set (Rules), and every sequence of slot decisions runs through sweep,
// the one loop below. A visited slot is re-decided as
//
//	after[v] = before[v] && !rule(v)
//
// with rule(v)'s premises read through the split view (slots.go). Callers
// differ only in which slots a sweep visits:
//
//   - every host in ascending ID order, in place (before == after): the
//     whole-graph pass from a fresh marking (ApplyRules and its ablation
//     variants, ApplyRuleK with the Rule-k predicate). The monotonicity
//     theorem (fixpoint.go) makes admissions no-ops there, so none are
//     made and no worklist is allocated;
//   - a caller's permutation, in place: ApplyRulesOrdered;
//   - an epoch-stamped Worklist whose flips admit the slots they can
//     change: a flip at v admits v's higher-ID neighbors into the same
//     sweep, and a Rule-1 flip also admits all of v's neighbors to the
//     Rule-2 worklist (Resweep, the distributed session's frontier).

// Rules is a policy's rule pair bound to one graph and priority order.
// The order closes over the graph's degrees and the energy slice, so
// in-place updates to either are visible to later evaluations. Rule 2's
// ID-or-priority form is chosen once, by Bind. NR binds no rules: nothing
// fires.
type Rules struct {
	g     *graph.Graph
	less  Less
	rule2 slotRule
	k     *ruleKScratch // set only by ApplyRuleK
}

// slotRule names a slot predicate.
type slotRule int

const (
	rule1 slotRule = iota
	rule2ID
	rule2Priority
	ruleK
)

// Bind binds the policy's rules to g and energy. energy is required
// (length g.NumNodes()) for EL1 and EL2 and ignored otherwise; it is
// indexed by node id and must not be reallocated afterwards.
func Bind(g *graph.Graph, p Policy, energy []float64) (Rules, error) {
	less, err := lessFor(p, g, energy)
	if err != nil {
		return Rules{}, err
	}
	r := Rules{g: g, less: less, rule2: rule2Priority}
	if p == ID {
		r.rule2 = rule2ID
	}
	return r, nil
}

// fires reports whether v's slot fires under the given predicate.
func (r *Rules) fires(rule slotRule, before, after []bool, v graph.NodeID) bool {
	switch rule {
	case rule1:
		return r.rule1(before, after, v)
	case rule2ID:
		return r.rule2ID(before, v)
	case rule2Priority:
		return r.rule2Priority(before, after, v)
	default:
		return r.ruleK(before, after, v)
	}
}

// Fires reports whether gateway v may unmark itself under Rule 1 or the
// policy's Rule 2, with every neighbor's status read from view — the
// one-shot decision of a host acting on its own, possibly stale, view.
func (r *Rules) Fires(view []bool, v graph.NodeID) bool {
	return r.less != nil && (r.rule1(view, view, v) || r.fires(r.rule2, view, view, v))
}

// slots selects the slots one sweep visits, in visiting order.
type slots struct {
	// order lists the slots to visit; nil (with wl nil) visits every host
	// in ascending ID order, while an empty order visits none.
	order []graph.NodeID
	// wl, when set, is visited instead, ascending; a flip at v admits v's
	// higher-ID neighbors into it.
	wl *Worklist
	// feed also receives every neighbor of a flipped slot.
	feed *Worklist
	// flips, when set, receives every flipped slot.
	flips *Worklist
}

// at returns the i-th slot to visit, or false past the end.
func (s *slots) at(i, n int) (graph.NodeID, bool) {
	switch {
	case s.wl != nil:
		if i < len(s.wl.list) {
			return s.wl.list[i], true
		}
	case s.order != nil:
		if i < len(s.order) {
			return s.order[i], true
		}
	case i < n:
		return graph.NodeID(i), true
	}
	return 0, false
}

// sweep is the one loop that decides rule slots in sequence: each visited
// slot is re-decided as after[v] = before[v] && !rule(v).
func (r *Rules) sweep(rule slotRule, before, after []bool, s slots) {
	if r.less == nil {
		return // NR binds no rules
	}
	for i := 0; ; i++ {
		v, ok := s.at(i, len(after))
		if !ok {
			return
		}
		now := before[v] && !r.fires(rule, before, after, v)
		if now == after[v] {
			continue
		}
		after[v] = now
		if s.flips != nil {
			s.flips.Add(v)
		}
		if s.wl == nil {
			continue
		}
		for _, u := range r.g.Neighbors(v) {
			if u > v {
				s.wl.scheduleAfter(u, i)
			}
			if s.feed != nil {
				s.feed.Add(u)
			}
		}
	}
}

// apply runs the whole-graph pass in place from a fresh marking: Rule 1
// over every slot, then Rule 2 — in ascending ID order, or in order when
// it is non-nil.
func (r *Rules) apply(gw []bool, order []graph.NodeID) {
	r.sweep(rule1, gw, gw, slots{order: order})
	r.sweep(r.rule2, gw, gw, slots{order: order})
}

// Resweep re-decides the rule slots a change may have invalidated and
// cascades the flips a whole-graph pass would propagate. marked holds the
// current markers; gw1 and gw2 hold the statuses after Rule 1 and after
// Rule 2 from an earlier pass, and are updated in place. f1 holds the
// seed — every slot whose inputs (adjacency, degree, energy, marker)
// changed since that pass — and is the Rule-1 worklist; f2 is reset to
// the seed and becomes the Rule-2 worklist. On return both hold every
// slot visited, flipped holds every slot whose gw2 status changed, and
// gw1 and gw2 equal a whole-graph pass from marked:
//
//   - A slot never visited keeps its value, which is correct because none
//     of its inputs, nor the statuses visible at its slot, changed.
//   - A visited slot reads decided slots below it from the updated array
//     and undecided slots above it from the earlier one, exactly the
//     state a whole-graph pass shows it.
//   - A flip admits its readers: a Rule-1 flip admits the higher-ID
//     neighbors to the Rule-1 sweep and all neighbors to the Rule-2 sweep
//     (gw1 is every Rule-2 slot's baseline); a Rule-2 flip admits the
//     higher-ID neighbors.
func (r *Rules) Resweep(marked, gw1, gw2 []bool, f1, f2, flipped *Worklist) {
	f1.Sort()
	f2.Reset()
	flipped.Reset()
	for _, v := range f1.list {
		f2.Add(v)
	}
	r.sweep(rule1, marked, gw1, slots{wl: f1, feed: f2})
	f2.Sort()
	r.sweep(r.rule2, gw1, gw2, slots{wl: f2, flips: flipped})
}

// Worklist is an epoch-stamped node set: O(1) Add and Has, and O(1) Reset
// with no allocation in steady state. stamp[v] == cur means v is a
// member; Reset bumps cur, invalidating every stamp at once (with a linear
// clear only on the practically-unreachable uint32 wraparound). List
// holds the members in insertion order until Sort orders them.
type Worklist struct {
	stamp []uint32
	cur   uint32
	list  []graph.NodeID
}

// Init sizes the set for hosts [0, n) and empties it.
func (w *Worklist) Init(n int) {
	w.stamp = make([]uint32, n)
	w.cur = 1
	w.list = w.list[:0]
}

// Reset empties the set.
func (w *Worklist) Reset() {
	w.cur++
	if w.cur == 0 {
		clear(w.stamp)
		w.cur = 1
	}
	w.list = w.list[:0]
}

// Add inserts v at the end of List unless it is already a member.
func (w *Worklist) Add(v graph.NodeID) {
	if w.stamp[v] == w.cur {
		return
	}
	w.stamp[v] = w.cur
	w.list = append(w.list, v)
}

// Has reports whether v is a member.
func (w *Worklist) Has(v graph.NodeID) bool { return w.stamp[v] == w.cur }

// Sort orders List ascending.
func (w *Worklist) Sort() { slices.Sort(w.list) }

// List returns the members. The slice aliases the set and is valid until
// the next mutation.
func (w *Worklist) List() []graph.NodeID { return w.list }

// scheduleAfter admits v into a sorted, in-progress sweep whose cursor is
// at index i. Admissions always lie strictly above the slot being
// decided, so a v already present is necessarily at an index > i and the
// membership stamp alone is a safe dedup.
func (w *Worklist) scheduleAfter(v graph.NodeID, i int) {
	if w.stamp[v] == w.cur {
		return
	}
	w.stamp[v] = w.cur
	tail := w.list[i+1:]
	j := i + 1 + sort.Search(len(tail), func(k int) bool { return tail[k] >= v })
	w.list = append(w.list, 0)
	copy(w.list[j+1:], w.list[j:])
	w.list[j] = v
}
