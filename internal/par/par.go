// Package par provides the deterministic worker-pool building block shared
// by the parallel scratch-compute kernels (cds.MarkParallel,
// udg.BuildParallel): a block-scheduled parallel for-loop over a dense
// index range.
//
// Workers claim fixed-size blocks off an atomic cursor, so an expensive
// block (a dense neighborhood, a crowded grid cell) never stalls the rest
// of the pool. Output written by the loop body must be positional — owned
// by the [lo, hi) range — which makes results independent of the claim
// order and therefore identical at every worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Block is the index-range granule handed to pool workers. Small enough to
// load-balance skewed work, large enough that the atomic claim is noise.
const Block = 256

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS, anything else is returned unchanged.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// For runs fn over [0, n) split into Block-sized ranges across
// min(workers, blocks) goroutines and returns when all ranges are done.
// fn must only write state owned by its range; it may be called
// concurrently from multiple goroutines and several times per goroutine.
// workers <= 1 (or a single block) degenerates to one inline call on the
// caller's goroutine.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	blocks := (n + Block - 1) / Block
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				lo := b * Block
				hi := lo + Block
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}
