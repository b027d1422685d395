package cds

import (
	"pacds/internal/graph"
	"pacds/internal/par"
)

// Parallel scratch compute.
//
// The marking process is purely local — m(v) depends only on N(v) and the
// adjacency among v's neighbors — so marking parallelizes embarrassingly:
// par.For chunks the node range across a worker pool, each worker writing
// a disjoint slice of the marked array against the read-only graph.
//
// The rule phase runs the one sequential sweep at every worker count. Its
// semantics judge every premise against the gateway state at that node's
// ID-ordered slot, so slot v can depend on slots u < v. Evaluating every
// slot against the pre-pass state in parallel and then re-deciding, in ID
// order, the candidates with an earlier flipped neighbor gives the same
// bytes, but about 70% of marked hosts get pruned, so that commit
// re-decides most candidates after the parallel pass has paid for them:
// at N=10⁴ on two cores it ran at 0.69–0.86× the sweep's speed.

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

// ApplyRulesParallel is ApplyRules under the signature of the parallel
// pipeline: the rule phase runs the sequential sweep at every worker
// count (see above), so workers is ignored and the result is ApplyRules'
// bytes. The marking snapshot is not modified.
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
	if len(dst) != g.NumNodes() {
		panic("cds: ApplyRulesParallelInto destination length mismatch")
	}
	_, r, err := begin(g, p, marked, energy, dst)
	if err != nil {
		return err
	}
	r.apply(dst, nil)
	return nil
}

// ComputeParallel runs the marking process across a worker pool, then the
// policy's rules. The Result is byte-identical to Compute — same Marked
// and Gateway contents in the same order — at every worker count
// (workers <= 0 selects GOMAXPROCS, 1 is sequential). energy follows the
// Compute contract.
func ComputeParallel(g *graph.Graph, p Policy, energy []float64, workers int) (*Result, error) {
	marked := MarkParallel(g, workers)
	gateway, err := ApplyRules(g, p, marked, energy)
	if err != nil {
		return nil, err
	}
	return &Result{Policy: p, Marked: marked, Gateway: gateway}, nil
}
