package cds

import "pacds/internal/graph"

// Incremental marking.
//
// The paper (Section 2.2) emphasizes the locality of the marking process:
// when the topology changes, only hosts near the change need to update
// their markers. The dependency is exact: m(v) is a function of v's
// neighbor set and of the adjacency among v's neighbors, so toggling an
// edge {a, b} can only change m(v) for
//
//	v ∈ {a, b} ∪ (N(a) ∩ N(b))
//
// — the endpoints (whose neighbor sets changed) and their common neighbors
// (for whom the pair (a, b) inside their neighborhood changed
// connectivity). IncrementalMarker maintains markers under edge updates,
// recomputing only that affected set, from neighborhood masks it keeps
// current (masks.go). Rule application remains a separate pass over the
// marked snapshot; Bind hands out rules that read the same masks.
type IncrementalMarker struct {
	g      *graph.Graph
	marked []bool
	masks  masks
	// dirty collects the hosts whose marker must be recomputed before the
	// next read, deduplicated across batched edge updates.
	dirty Worklist
	// stale collects the endpoints of the toggles since the last read:
	// their neighbor lists changed, so their masks are rebuilt, not
	// patched.
	stale Worklist
	// flipped lists the hosts whose marker the latest Marked changed.
	flipped []graph.NodeID
}

// NewIncrementalMarker computes initial markers for g and begins tracking.
// The marker keeps a reference to g; apply all subsequent topology changes
// through AddEdge/RemoveEdge so markers stay consistent. Building the masks
// costs Σ deg² work; a host with more than 64 neighbors gives g its dense
// view (graph.AutoBitset).
func NewIncrementalMarker(g *graph.Graph) *IncrementalMarker {
	n := g.NumNodes()
	im := &IncrementalMarker{g: g, marked: make([]bool, n)}
	im.masks.init(g)
	for v := range im.marked {
		im.marked[v] = im.masks.mark(graph.NodeID(v))
	}
	im.dirty.Init(n)
	im.stale.Init(n)
	return im
}

// Bind binds the policy's rules to the marker's graph, like the package
// Bind, with the slots of hosts that have 1 to 64 neighbors decided from
// the marker's masks. The rules read the masks as the latest Marked left
// them, so run them only after Marked has absorbed every toggle.
func (im *IncrementalMarker) Bind(p Policy, energy []float64) (Rules, error) {
	r, err := Bind(im.g, p, energy)
	if err != nil {
		return Rules{}, err
	}
	r.m = &im.masks
	return r, nil
}

// noteAffected marks the affected set of edge {a, b} dirty, queues the
// endpoints' masks for a rebuild and patches the masks of the common
// neighbors that are not endpoints themselves. Toggling {a, b} does not
// change N(a) ∩ N(b), so the set is the same whether it is read before or
// after the toggle.
func (im *IncrementalMarker) noteAffected(a, b graph.NodeID, up bool) {
	im.dirty.Add(a)
	im.dirty.Add(b)
	im.stale.Add(a)
	im.stale.Add(b)
	im.g.ForEachCommonNeighbor(a, b, func(c graph.NodeID) {
		im.dirty.Add(c)
		if !im.stale.Has(c) {
			im.masks.patch(c, a, b, up)
		}
	})
}

// AddEdge inserts {a, b} into the underlying graph and marks the affected
// nodes for recomputation. It reports whether the edge is new; adding an
// existing edge changes nothing.
func (im *IncrementalMarker) AddEdge(a, b graph.NodeID) bool {
	if im.g.HasEdge(a, b) {
		return false
	}
	im.g.AddEdge(a, b)
	im.noteAffected(a, b, true)
	return true
}

// RemoveEdge removes {a, b} and marks the affected nodes. It reports
// whether the edge was present.
func (im *IncrementalMarker) RemoveEdge(a, b graph.NodeID) bool {
	if !im.g.RemoveEdge(a, b) {
		return false
	}
	im.noteAffected(a, b, false)
	return true
}

// Marked returns the current markers, recomputing pending dirty nodes
// first. The returned slice aliases internal state; callers must not
// modify it.
func (im *IncrementalMarker) Marked() []bool {
	for _, v := range im.stale.List() {
		im.masks.build(v)
	}
	im.stale.Reset()
	im.flipped = im.flipped[:0]
	for _, v := range im.dirty.List() {
		if m := im.masks.mark(v); m != im.marked[v] {
			im.marked[v] = m
			im.flipped = append(im.flipped, v)
		}
	}
	im.dirty.Reset()
	return im.marked
}

// Flipped returns the nodes whose marker the latest Marked call changed.
// The slice aliases internal state and is valid until the next Marked.
func (im *IncrementalMarker) Flipped() []graph.NodeID { return im.flipped }

// PendingDirty returns how many nodes await recomputation — the size of
// the locality footprint of the updates since the last read.
func (im *IncrementalMarker) PendingDirty() int { return len(im.dirty.List()) }
