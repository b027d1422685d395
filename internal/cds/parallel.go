package cds

import (
	"pacds/internal/graph"
	"pacds/internal/par"
)

// Deterministic parallel scratch compute.
//
// The marking process is purely local — m(v) depends only on N(v) and the
// adjacency among v's neighbors — so marking parallelizes embarrassingly:
// chunk the node range across a worker pool, each worker writing a
// disjoint slice of the marked array against the read-only graph. The rule
// phase is NOT embarrassingly parallel: ApplyRules' sequential semantics
// judges every premise against the gateway state as it stands at that
// node's ID-ordered slot, so slot v's verdict can depend on slots u < v.
// ApplyRulesParallel recovers parallelism with a speculate/commit
// schedule whose output is byte-identical to the sequential sweep:
//
//  1. Speculate (parallel): every marked node's slot predicate is
//     evaluated against the immutable pre-pass state. Eligibility is
//     monotone non-decreasing in the gateway set (every rule fires on
//     "some currently-marked neighbors cover v"; shrinking the set only
//     removes coverers — the same monotonicity theorem that collapsed the
//     fixpoint to one pass in PR 3), and the sequential sweep only ever
//     shrinks the set, so the state at any slot is a subset of the
//     pre-pass state. A node found ineligible against the pre-pass
//     superset is therefore ineligible at its slot: speculation
//     over-approximates the true flip set, never misses it.
//
//  2. Commit (sequential, cheap): the candidates form the worklist of one
//     rule-engine sweep (engine.go) from the pre-pass snapshot into the
//     output, in ascending ID order. A candidate's speculative verdict
//     used pre-pass statuses for every neighbor; its slot verdict differs
//     only if some neighbor u < v flipped earlier in THIS pass —
//     unmarking only removes coverers, so speculation is invalidated in
//     exactly one direction (eligible → ineligible, never the reverse).
//     The sweep therefore re-decides a candidate only when such an earlier
//     flip exists in N(v); every other candidate's verdict stands.
//
// The schedule runs once per rule template, mirroring ApplyRules exactly:
// a Rule-1 speculate/commit against the marking snapshot, then a Rule-2
// speculate/commit against the post-Rule-1 state. Every worker count —
// including 1, which short-circuits to the sequential sweep — produces
// identical bytes (property-tested under -race by parallel_test.go).

// The node-range scheduling (block claims off an atomic cursor, positional
// writes) lives in package par and is shared with udg.BuildParallel.

// MarkParallel is Mark across a worker pool: workers goroutines each
// evaluate the marking condition for a disjoint node range against the
// read-only graph. workers <= 0 selects GOMAXPROCS; 1 is the sequential
// path. Output is identical to Mark at every worker count.
func MarkParallel(g *graph.Graph, workers int) []bool {
	marked := make([]bool, g.NumNodes())
	MarkParallelInto(g, marked, workers)
	return marked
}

// MarkParallelInto is MarkParallel writing into a caller-provided slice
// (length g.NumNodes()).
func MarkParallelInto(g *graph.Graph, dst []bool, workers int) {
	if len(dst) != g.NumNodes() {
		panic("cds: MarkParallelInto destination length mismatch")
	}
	workers = par.Workers(workers)
	if workers <= 1 {
		MarkInto(g, dst)
		return
	}
	par.For(g.NumNodes(), workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			dst[v] = g.HasUnconnectedNeighbors(graph.NodeID(v))
		}
	})
}

// ApplyRulesParallel applies the policy's pruning rules with the
// speculate/commit schedule above. The result is byte-identical to
// ApplyRules for every worker count; workers <= 0 selects GOMAXPROCS and
// workers == 1 runs the sequential sweep directly. The marking snapshot
// is not modified.
func ApplyRulesParallel(g *graph.Graph, p Policy, marked []bool, energy []float64, workers int) ([]bool, error) {
	out := make([]bool, g.NumNodes())
	if err := ApplyRulesParallelInto(g, p, marked, energy, workers, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyRulesParallelInto is ApplyRulesParallel writing the gateway
// statuses into a caller-provided slice (length g.NumNodes()), so pooled
// callers (the cdsd handlers) avoid the per-request allocation.
func ApplyRulesParallelInto(g *graph.Graph, p Policy, marked []bool, energy []float64, workers int, dst []bool) error {
	n := g.NumNodes()
	if len(dst) != n {
		panic("cds: ApplyRulesParallelInto destination length mismatch")
	}
	_, r, err := begin(g, p, marked, energy, dst)
	if err != nil {
		return err
	}
	if workers = par.Workers(workers); p == NR || workers <= 1 || n < 2*par.Block {
		// Sequential path: the in-place pass IS the reference semantics,
		// so small instances skip the speculation scratch.
		r.apply(dst, nil)
		return nil
	}
	speculate(r, dst, workers)
	return nil
}

// speculate runs the speculate/commit schedule over gw, which holds the
// marking on entry and the gateway statuses on return. r is taken by
// value so that only this path pays for the worker closure's copy.
func speculate(r Rules, gw []bool, workers int) {
	n := len(gw)
	// pre holds the immutable pre-pass snapshot of the current rule
	// template, cand the speculative verdicts; one backing array serves
	// both templates.
	buf := make([]bool, 2*n)
	pre, cand := buf[:n], buf[n:]
	// Never nil: a nil order would make the sweep visit every host.
	cands := make([]graph.NodeID, 0, n)
	for _, rule := range [2]slotRule{rule1, r.rule2} {
		copy(pre, gw)
		par.For(n, workers, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				cand[v] = pre[v] && r.fires(rule, pre, pre, graph.NodeID(v))
			}
		})
		cands = cands[:0]
		for v, c := range cand {
			if c {
				cands = append(cands, graph.NodeID(v))
			}
		}
		r.sweep(rule, pre, gw, slots{order: cands, speculated: true})
	}
}

// ComputeParallel runs the marking process and the policy's rules across
// a worker pool. The Result is byte-identical to Compute — same Marked
// and Gateway contents in the same order — at every worker count
// (workers <= 0 selects GOMAXPROCS, 1 is sequential). energy follows the
// Compute contract.
func ComputeParallel(g *graph.Graph, p Policy, energy []float64, workers int) (*Result, error) {
	workers = par.Workers(workers)
	if workers <= 1 {
		return Compute(g, p, energy)
	}
	marked := MarkParallel(g, workers)
	gateway, err := ApplyRulesParallel(g, p, marked, energy, workers)
	if err != nil {
		return nil, err
	}
	return &Result{Policy: p, Marked: marked, Gateway: gateway}, nil
}
