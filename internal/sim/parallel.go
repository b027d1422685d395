package sim

import (
	"fmt"
	"math"
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

	// Per-trial seeds: a single seed stream read in order.
	seedRNG := xrand.New(cfg.Seed)
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = seedRNG.Uint64()
	}

	runs := make([]*Metrics, trials)
	err := ForTrials(trials, workers, func(i int) (err error) {
		c := cfg
		c.Seed = seeds[i]
		runs[i], err = Run(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	stats := &TrialStats{Trials: trials}
	for _, m := range runs {
		stats.Lifetime = append(stats.Lifetime, float64(m.Intervals))
		stats.MeanGateways = append(stats.MeanGateways, m.MeanGateways)
		if m.Truncated {
			stats.TruncatedRuns++
		}
	}
	return stats, nil
}

// ForTrials runs run(i) for every trial index i in [0, trials) on a pool
// of workers goroutines (workers <= 0 selects GOMAXPROCS) and returns the
// error of the lowest-index trial that failed, or nil. After a failure
// the trials above it are skipped, while every trial below it still
// runs, so the error returned is the same at any worker count. run must
// write only state owned by its index.
func ForTrials(trials, workers int, run func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, trials)
	errs := make([]error, trials)
	// Workers claim indices in ascending order. failed is the lowest
	// failed index so far: a trial claimed below it must still run, even
	// when a trial above it failed first.
	var next, failed atomic.Int64
	failed.Store(math.MaxInt64)
	fail := func(i int64) {
		for f := failed.Load(); i < f; f = failed.Load() {
			if failed.CompareAndSwap(f, i) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(trials) || i > failed.Load() {
					return
				}
				if errs[i] = run(int(i)); errs[i] != nil {
					fail(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
