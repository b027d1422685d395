package server

import (
	"sync"

	"pacds/internal/graph"
)

// Per-request pooled storage. A compute, verify or session create needs
// its request's edge list, a graph built from it and, for compute and
// verify, a pair of per-node bool slices (marked/gateway statuses).
// Allocating them per request made the request graph three quarters of
// the bytes cdsd allocated; the pools below recycle all of it across
// requests.
//
// Lifetime contract: builders and scratch must be acquired AND released
// inside the worker-pool closure. submit can return on context timeout
// while the worker is still running the closure (see submit), so storage
// that escaped to the handler scope could be recycled while a worker
// still reads it. Edge buffers start in the handler (the request scanner
// fills them) and follow one ownership rule, set out at edgeBuf.

// computeScratch is the pooled pair of per-node status slices.
type computeScratch struct {
	marked  []bool
	gateway []bool
}

var scratchPool = sync.Pool{New: func() any { return new(computeScratch) }}

// getScratch returns a scratch pair sized to n nodes. Contents are
// arbitrary (dirty); the cds Into-kernels overwrite every slot.
func getScratch(n int) *computeScratch {
	sc := scratchPool.Get().(*computeScratch)
	if cap(sc.marked) < n {
		sc.marked = make([]bool, n)
		sc.gateway = make([]bool, n)
	}
	sc.marked = sc.marked[:n]
	sc.gateway = sc.gateway[:n]
	return sc
}

func putScratch(sc *computeScratch) { scratchPool.Put(sc) }

// edgeBuf is a request's edge list, flat (u0,v0,u1,v1,…) in pooled
// storage. The request scanner fills one from the body, and
// GraphSpec.edgeList hands it, or one it fills from Edges, to the
// handler. From there one rule says who puts it back:
//   - a buffer handed to a submitted job belongs to that job, and the
//     job puts it back when it ends (withGraph);
//   - the handler puts back only the buffers of requests that never
//     submitted a job: cache hits, rejected requests, and jobs submit
//     refused (refused), including a coalesced request's, whose own job
//     never existed;
//   - any other buffer is left to the collector: that of a job whose
//     deadline passed while it was queued, and so never ran, and that of
//     a body the scanner gave up on halfway.
//
// Once put back a buffer may be handed to another request at once, so
// nothing may read it after the put.
type edgeBuf struct{ flat []int32 }

var edgePool = sync.Pool{New: func() any { return new(edgeBuf) }}

// maxPooledEdges caps the buffers kept in edgePool and the graphs whose
// builder goes back to builderPool, as maxPooledBody caps the body
// buffers: 1<<16 endpoints hold a graph of about 3,300 hosts at the
// paper's density, the largest sessions perfbench creates. A larger
// request's storage is left to the collector instead of staying pinned
// in a pool.
const maxPooledEdges = 1 << 16

// getEdgeBuf returns an empty buffer with room for size endpoints.
func getEdgeBuf(size int) *edgeBuf {
	b := edgePool.Get().(*edgeBuf)
	if cap(b.flat) < size {
		b.flat = make([]int32, 0, size)
	}
	b.flat = b.flat[:0]
	return b
}

func (b *edgeBuf) put() {
	if cap(b.flat) <= maxPooledEdges {
		edgePool.Put(b)
	}
}

// digest returns graph.Digest of the graph over n nodes that the list
// builds. A list not in canonical order (json.Marshal of Graph.Edges
// gives that order; hand-built bodies and Edges from encoding/json may
// not) is put in it in place first, so that the order and repeats of a
// list never split one graph across cache keys.
func (b *edgeBuf) digest(n int) uint64 {
	d, ok := graph.DigestFlat(n, b.flat)
	if !ok {
		b.flat = graph.CanonicalFlat(b.flat)
		d, _ = graph.DigestFlat(n, b.flat)
	}
	return d
}

var builderPool = sync.Pool{New: func() any { return new(graph.Builder) }}

// withGraph is the body of every job that builds a request graph: it
// builds the graph of n nodes over edges in a pooled graph.Builder, runs
// fn on it, and then puts back the builder and the edge buffer, which
// the job owns. The graph lives in the builder's storage, so nothing fn
// returns may reference it.
func withGraph(n int, edges *edgeBuf, fn func(*graph.Graph) (any, error)) (any, error) {
	b := builderPool.Get().(*graph.Builder)
	v, err := fn(b.Build(n, edges.flat))
	if n <= graph.BitsetMaxNodes && len(edges.flat) <= maxPooledEdges {
		builderPool.Put(b)
	}
	edges.put()
	return v, err
}
