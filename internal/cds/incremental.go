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
// recomputing only that affected set. Rule application remains a separate
// (cheap) pass over the marked snapshot.
type IncrementalMarker struct {
	g      *graph.Graph
	marked []bool
	// dirty collects the hosts whose marker must be recomputed before the
	// next read, deduplicated across batched edge updates.
	dirty Worklist
	// flipped lists the hosts whose marker the latest Marked changed.
	flipped []graph.NodeID
}

// NewIncrementalMarker computes initial markers for g and begins tracking.
// The marker keeps a reference to g; apply all subsequent topology changes
// through AddEdge/RemoveEdge so markers stay consistent.
func NewIncrementalMarker(g *graph.Graph) *IncrementalMarker {
	im := &IncrementalMarker{g: g, marked: Mark(g)}
	im.dirty.Init(g.NumNodes())
	return im
}

// noteAffected marks the affected set of edge {a, b} dirty. Toggling
// {a, b} does not change N(a) ∩ N(b), so the set is the same whether it
// is read before or after the toggle.
func (im *IncrementalMarker) noteAffected(a, b graph.NodeID) {
	im.dirty.Add(a)
	im.dirty.Add(b)
	im.g.ForEachCommonNeighbor(a, b, im.dirty.Add)
}

// AddEdge inserts {a, b} into the underlying graph and marks the affected
// nodes for recomputation. It reports whether the edge is new; adding an
// existing edge changes nothing.
func (im *IncrementalMarker) AddEdge(a, b graph.NodeID) bool {
	if im.g.HasEdge(a, b) {
		return false
	}
	im.g.AddEdge(a, b)
	im.noteAffected(a, b)
	return true
}

// RemoveEdge removes {a, b} and marks the affected nodes. It reports
// whether the edge was present.
func (im *IncrementalMarker) RemoveEdge(a, b graph.NodeID) bool {
	if !im.g.RemoveEdge(a, b) {
		return false
	}
	im.noteAffected(a, b)
	return true
}

// Marked returns the current markers, recomputing pending dirty nodes
// first. The returned slice aliases internal state; callers must not
// modify it.
func (im *IncrementalMarker) Marked() []bool {
	im.flipped = im.flipped[:0]
	for _, v := range im.dirty.List() {
		if m := im.g.HasUnconnectedNeighbors(v); m != im.marked[v] {
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
