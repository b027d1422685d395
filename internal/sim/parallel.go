package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pacds/internal/xrand"
)

// RunTrialsParallel executes trials independent runs of cfg across a
// worker pool and aggregates them. Results are identical at every worker
// count — each trial's seed is a pure function of its index, so
// scheduling order cannot change any outcome — but wall clock scales with
// available cores.
//
// workers <= 0 selects GOMAXPROCS.
func RunTrialsParallel(cfg Config, trials, workers int) (*TrialStats, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive, got %d", trials)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	// Per-trial seeds: a single seed stream read in order.
	seedRNG := xrand.New(cfg.Seed)
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = seedRNG.Uint64()
	}

	type result struct {
		idx int
		m   *Metrics
		err error
	}
	work := make(chan int)
	results := make(chan result)
	var wg sync.WaitGroup
	// Once a trial fails the call returns an error, so later trials are
	// skipped; with one worker that stops at the first failure.
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if failed.Load() {
					continue
				}
				c := cfg
				c.Seed = seeds[i]
				m, err := Run(c)
				if err != nil {
					failed.Store(true)
				}
				results <- result{idx: i, m: m, err: err}
			}
		}()
	}
	go func() {
		for i := 0; i < trials; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		close(results)
	}()

	lifetimes := make([]float64, trials)
	gateways := make([]float64, trials)
	truncated := 0
	var firstErr error
	for r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		lifetimes[r.idx] = float64(r.m.Intervals)
		gateways[r.idx] = r.m.MeanGateways
		if r.m.Truncated {
			truncated++
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &TrialStats{
		Trials:        trials,
		Lifetime:      lifetimes,
		MeanGateways:  gateways,
		TruncatedRuns: truncated,
	}, nil
}
