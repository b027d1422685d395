package sim

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/energy"
)

func TestParallelMatchesSequential(t *testing.T) {
	cfg := PaperConfig(20, cds.EL1, energy.Linear{}, 99)
	seq, err := RunTrials(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		par, err := RunTrialsParallel(cfg, 8, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Per-index equality: the seed schedule is identical.
		for i := range seq.Lifetime {
			if seq.Lifetime[i] != par.Lifetime[i] {
				t.Fatalf("workers=%d trial %d: lifetime %v != %v",
					workers, i, par.Lifetime[i], seq.Lifetime[i])
			}
			if seq.MeanGateways[i] != par.MeanGateways[i] {
				t.Fatalf("workers=%d trial %d: gateways %v != %v",
					workers, i, par.MeanGateways[i], seq.MeanGateways[i])
			}
		}
		if par.TruncatedRuns != seq.TruncatedRuns {
			t.Fatalf("workers=%d: truncated %d != %d", workers, par.TruncatedRuns, seq.TruncatedRuns)
		}
	}
}

func TestParallelMoreWorkersThanTrials(t *testing.T) {
	cfg := PaperConfig(12, cds.ID, energy.Linear{}, 5)
	par, err := RunTrialsParallel(cfg, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if par.Trials != 2 || len(par.Lifetime) != 2 {
		t.Fatalf("stats = %+v", par)
	}
}

func TestParallelZeroTrials(t *testing.T) {
	cfg := PaperConfig(10, cds.ID, energy.Linear{}, 1)
	if _, err := RunTrialsParallel(cfg, 0, 2); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	cfg := PaperConfig(10, cds.EL1, energy.Linear{}, 1)
	cfg.Radius = -1 // invalid
	if _, err := RunTrialsParallel(cfg, 4, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestParallelResultsAreOrdered(t *testing.T) {
	// Lifetime slice is indexed by trial, not completion order; sorting a
	// copy must not equal the original unless already sorted (weak check:
	// slices have trial-deterministic content regardless of workers).
	cfg := PaperConfig(15, cds.ND, energy.Quadratic{}, 31)
	a, err := RunTrialsParallel(cfg, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrialsParallel(cfg, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Lifetime {
		if a.Lifetime[i] != b.Lifetime[i] {
			t.Fatalf("worker count changed per-trial results at %d", i)
		}
	}
}

// TestForTrialsLowestFailure pins ForTrials' error contract: the
// lowest-index failure wins at every worker count, every trial below it
// runs, and one worker stops at the first failure.
func TestForTrialsLowestFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		var ran [10]atomic.Bool
		err := ForTrials(len(ran), workers, func(i int) error {
			ran[i].Store(true)
			if i == 3 || i == 6 {
				return fmt.Errorf("trial %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "trial 3 failed" {
			t.Fatalf("workers=%d: err = %v, want trial 3's", workers, err)
		}
		for i := range ran {
			if i <= 3 && !ran[i].Load() {
				t.Fatalf("workers=%d: trial %d below the failure was skipped", workers, i)
			}
			if workers == 1 && i > 3 && ran[i].Load() {
				t.Fatalf("workers=1: trial %d ran after trial 3 failed", i)
			}
		}
	}
}
