// Command cdsim runs one lifetime simulation of the paper's procedure and
// prints per-interval or summary output.
//
// Usage:
//
//	cdsim -n 50 -policy EL1 -drain linear -seed 1 [-trace] [-trials 20]
//
// With -trials > 1 it aggregates lifetimes across independent runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pacds/internal/cds"
	"pacds/internal/energy"
	"pacds/internal/sim"
	"pacds/internal/stats"
	"pacds/internal/trace"
	"pacds/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdsim", flag.ContinueOnError)
	n := fs.Int("n", 50, "number of hosts")
	policyName := fs.String("policy", "EL1", "pruning policy: NR, ID, ND, EL1, or EL2")
	drainName := fs.String("drain", "linear", "gateway drain model: const, linear, quadratic, or a -pergw variant")
	seed := fs.Uint64("seed", 1, "random seed")
	trials := fs.Int("trials", 1, "independent runs to aggregate")
	workers := fs.Int("workers", 0, "parallel trial workers with -trials > 1 (0 = GOMAXPROCS)")
	traceFlag := fs.Bool("trace", false, "print per-interval gateway counts (single trial only)")
	verify := fs.Bool("verify", false, "check CDS invariants every interval")
	static := fs.Bool("static", false, "disable mobility")
	timeseries := fs.String("timeseries", "", "write per-interval CSV time series to this file (single trial only)")
	extended := fs.Bool("extended", false, "continue past the first death until half the hosts die; report the death timeline")
	drop := fs.Float64("drop", 0, "per-delivery radio loss probability in [0, 1]; nonzero runs the hardened distributed protocol")
	crash := fs.Int("crash", 0, "number of hosts that fail permanently during the run (hardened protocol)")
	faultSeed := fs.Uint64("faultseed", 0, "seed for the fault schedule (0 derives it from -seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := cds.ByName(*policyName)
	if err != nil {
		return err
	}
	drain, err := energy.ByName(*drainName)
	if err != nil {
		return err
	}
	// NaN compares false against every bound, so reject it explicitly or
	// it silently reaches the fault plan as a "valid" probability.
	if math.IsNaN(*drop) || math.IsInf(*drop, 0) {
		return fmt.Errorf("-drop %v is not a probability (need a finite value in [0, 1])", *drop)
	}
	if *drop < 0 || *drop > 1 {
		return fmt.Errorf("-drop %v outside [0, 1]", *drop)
	}
	if *crash < 0 || (*n > 0 && *crash >= *n) {
		return fmt.Errorf("-crash %d out of range for %d hosts (need 0 <= crash < n)", *crash, *n)
	}

	cfg := sim.PaperConfig(*n, policy, drain, *seed)
	cfg.Verify = *verify
	if *static {
		cfg.Mobility = nil
	}
	cfg.Drop = *drop
	cfg.Crashes = *crash
	cfg.FaultSeed = *faultSeed

	if *drop > 0 || *crash > 0 {
		if *extended {
			return fmt.Errorf("-extended is not supported together with -drop/-crash")
		}
		return runFaulty(cfg, *trials, *workers, *timeseries, stdout)
	}

	if *extended {
		m, err := sim.RunExtended(cfg, 0.5)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "policy=%v drain=%s n=%d seed=%d (extended)\n", policy, drain.Name(), *n, *seed)
		fmt.Fprintf(stdout, "first death: interval %d\n", m.FirstDeath)
		fmt.Fprintf(stdout, "half dead:   interval %d\n", m.HalfDeath)
		fmt.Fprintf(stdout, "mean gateways: %.2f over %d intervals (truncated=%v)\n",
			m.MeanGateways, m.Intervals, m.Truncated)
		fmt.Fprintf(stdout, "death timeline (first 20): %v\n", firstK(m.DeathIntervals, 20))
		return nil
	}

	if *trials <= 1 {
		var rec trace.Recorder
		if *timeseries != "" {
			cfg.Observer = rec.Observe
		}
		m, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		if *timeseries != "" {
			f, err := os.Create(*timeseries)
			if err != nil {
				return err
			}
			if err := rec.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d intervals)\n", *timeseries, rec.Len())
		}
		fmt.Fprintf(stdout, "policy=%v drain=%s n=%d seed=%d\n", policy, drain.Name(), *n, *seed)
		fmt.Fprintf(stdout, "lifetime: %d update intervals (truncated=%v)\n", m.Intervals, m.Truncated)
		fmt.Fprintf(stdout, "mean gateways: %.2f\n", m.MeanGateways)
		if m.FirstDead >= 0 {
			fmt.Fprintf(stdout, "first death: host %d\n", m.FirstDead)
		}
		fmt.Fprintf(stdout, "residual energy: total=%.1f variance=%.1f\n", m.ResidualEnergy, m.ResidualVariance)
		if m.DisconnectedIntervals > 0 {
			fmt.Fprintf(stdout, "disconnected intervals: %d\n", m.DisconnectedIntervals)
		}
		if *traceFlag {
			fmt.Fprintln(stdout, "interval  gateways")
			for i, c := range m.GatewayCounts {
				fmt.Fprintf(stdout, "%8d  %8d\n", i+1, c)
			}
		}
		return nil
	}

	ts, err := sim.RunTrialsParallel(cfg, *trials, *workers)
	if err != nil {
		return err
	}
	life := stats.Summarize(ts.Lifetime)
	gws := stats.Summarize(ts.MeanGateways)
	fmt.Fprintf(stdout, "policy=%v drain=%s n=%d trials=%d\n", policy, drain.Name(), *n, *trials)
	fmt.Fprintf(stdout, "lifetime:  %s\n", life)
	fmt.Fprintf(stdout, "gateways:  %s\n", gws)
	if ts.TruncatedRuns > 0 {
		fmt.Fprintf(stdout, "truncated runs: %d\n", ts.TruncatedRuns)
	}
	return nil
}

// runFaulty executes the lifetime simulation through the hardened
// fault-tolerant protocol and reports radio-fault costs alongside the
// usual lifetime metrics.
func runFaulty(cfg sim.Config, trials, workers int, timeseries string, stdout io.Writer) error {
	banner := fmt.Sprintf("policy=%v drain=%s n=%d drop=%.2f crash=%d",
		cfg.Policy, cfg.Drain.Name(), cfg.N, cfg.Drop, cfg.Crashes)
	if trials <= 1 {
		var rec trace.FaultRecorder
		if timeseries != "" {
			cfg.FaultObserver = rec.Observe
		}
		m, err := sim.RunDistributed(cfg)
		if err != nil {
			return err
		}
		if timeseries != "" {
			f, err := os.Create(timeseries)
			if err != nil {
				return err
			}
			if err := rec.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d intervals)\n", timeseries, rec.Len())
		}
		fmt.Fprintf(stdout, "%s seed=%d\n", banner, cfg.Seed)
		fmt.Fprintf(stdout, "lifetime: %d update intervals (truncated=%v)\n", m.Intervals, m.Truncated)
		fmt.Fprintf(stdout, "mean gateways: %.2f\n", m.MeanGateways)
		fmt.Fprintf(stdout, "faults: drops=%d duplicates=%d retransmissions=%d evictions=%d\n",
			m.Drops, m.Duplicates, m.Retransmissions, m.Evictions)
		fmt.Fprintf(stdout, "crashed hosts: %d; degraded intervals: %d\n",
			m.HostCrashes, m.DegradedIntervals)
		return nil
	}
	// Every trial's seeds are drawn in trial order before any runs, so
	// the output does not depend on the worker count.
	seedRNG := xrand.New(cfg.Seed)
	cfgs := make([]sim.Config, trials)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = seedRNG.Uint64()
		cfgs[i].FaultSeed = seedRNG.Uint64()
	}
	runs := make([]*sim.DistributedMetrics, trials)
	err := sim.ForTrials(trials, workers, func(i int) (err error) {
		runs[i], err = sim.RunDistributed(cfgs[i])
		return err
	})
	if err != nil {
		return err
	}
	var lifetimes, gateways []float64
	truncated := 0
	for _, m := range runs {
		lifetimes = append(lifetimes, float64(m.Intervals))
		gateways = append(gateways, m.MeanGateways)
		if m.Truncated {
			truncated++
		}
	}
	fmt.Fprintf(stdout, "%s trials=%d\n", banner, trials)
	fmt.Fprintf(stdout, "lifetime:  %s\n", stats.Summarize(lifetimes))
	fmt.Fprintf(stdout, "gateways:  %s\n", stats.Summarize(gateways))
	if truncated > 0 {
		fmt.Fprintf(stdout, "truncated runs: %d\n", truncated)
	}
	return nil
}

// firstK returns at most the first k elements of xs.
func firstK(xs []int, k int) []int {
	if len(xs) > k {
		return xs[:k]
	}
	return xs
}
