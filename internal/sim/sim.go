// Package sim implements the paper's simulation procedure (Section 4):
//
//  1. Generate a random unit-disk network with uniform initial energy.
//  2. Each update interval, run the marking process and the selected rule
//     set; record the number of gateway hosts.
//  3. Drain energy: d per gateway (one of three traffic models), d' per
//     non-gateway. If any host reaches zero, stop and record the number of
//     completed update intervals (the network lifetime). Otherwise every
//     host roams per the mobility model, the topology is rebuilt, and the
//     next interval begins.
//
// Every lifetime loop — Run, RunExtended, RunChurn, RunDistributed, and
// traffic.Run outside this package — is a per-interval body over one
// Stepper, which owns placement, energy, the random streams, the interval
// cap, and the move and rebuild between intervals. The paper's lifetime
// experiment (Figures 11-13) is built on Run; its gateway-count
// experiment (Figure 10) needs no interval loop and lives in
// internal/experiments.
package sim

import (
	"errors"
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/energy"
	"pacds/internal/geom"
	"pacds/internal/mobility"
)

// Config parameterizes one lifetime simulation run.
type Config struct {
	// N is the number of hosts.
	N int
	// Field is the deployment region (paper: 100x100).
	Field geom.Rect
	// Radius is the shared transmission radius (paper: 25).
	Radius float64
	// Policy selects the rule set (NR, ID, ND, EL1, EL2).
	Policy cds.Policy
	// Drain is the gateway drain model d (paper models 1-3).
	Drain energy.DrainModel
	// NonGatewayDrain is d' (paper: 1).
	NonGatewayDrain float64
	// InitialEnergy is each host's starting level (paper: 100).
	InitialEnergy float64
	// InitialLevels optionally overrides InitialEnergy with per-host
	// starting levels (length N). The paper initializes uniformly; diverse
	// starts are an extension that differentiates the energy-aware
	// policies from the first interval.
	InitialLevels []float64
	// Mobility moves hosts between intervals (paper: 8-direction hop
	// model with c = 0.5, l in [1..6]). Nil means hosts are static.
	Mobility mobility.Model
	// MaxIntervals caps the run to guarantee termination even for
	// configurations where no host ever dies (e.g. zero drain). 0 means
	// the default of 100000.
	MaxIntervals int
	// Seed drives all randomness in the run.
	Seed uint64
	// ConnectedStart requires the initial topology to be connected
	// (sampled by retry, as for the paper's graph-size experiment).
	ConnectedStart bool
	// Verify, when set, checks the CDS invariants every interval and
	// fails the run on violation. Used by tests; costs O(V·E) per
	// interval.
	Verify bool
	// Observer, when non-nil, is called after every interval's rule
	// application and energy drain with the interval number (1-based),
	// the interval's CDS result, and the current energy levels. The
	// callback must not retain the result or levels beyond the call. Use
	// it to record time series without modifying the engine.
	Observer func(interval int, res *cds.Result, levels *energy.Levels)

	// Drop is the per-delivery loss probability of the radio. Nonzero
	// values route RunDistributed through the hardened fault-tolerant
	// protocol (see internal/faults); Run ignores it. Must be in [0, 1].
	Drop float64
	// Crashes is the number of hosts that fail permanently while the
	// network operates (RunDistributed only). Victims are chosen
	// deterministically from FaultSeed, one every few intervals. Must be
	// in [0, N).
	Crashes int
	// FaultSeed drives all fault randomness independently of Seed, so the
	// same deployment can be replayed under different fault schedules.
	// Zero derives it from Seed.
	FaultSeed uint64
	// FaultObserver, when non-nil, receives each interval's hardened
	// protocol statistics (RunDistributed under faults only). The Stats
	// value is per interval, not cumulative.
	FaultObserver func(interval int, stats distributed.Stats)
}

// PaperConfig returns the paper's parameters for a lifetime run: 100x100
// field, radius 25, energy 100, d' = 1, 8-direction mobility with c = 0.5.
func PaperConfig(n int, p cds.Policy, drain energy.DrainModel, seed uint64) Config {
	return Config{
		N:               n,
		Field:           geom.Square(100),
		Radius:          25,
		Policy:          p,
		Drain:           drain,
		NonGatewayDrain: 1,
		InitialEnergy:   100,
		Mobility:        mobility.NewPaper(),
		Seed:            seed,
		ConnectedStart:  true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("sim: N must be positive, got %d", c.N)
	}
	if c.Radius <= 0 {
		return fmt.Errorf("sim: radius must be positive, got %v", c.Radius)
	}
	if c.Drain == nil {
		return errors.New("sim: drain model is required")
	}
	if c.NonGatewayDrain < 0 {
		return fmt.Errorf("sim: negative non-gateway drain %v", c.NonGatewayDrain)
	}
	if c.InitialEnergy <= 0 {
		return fmt.Errorf("sim: initial energy must be positive, got %v", c.InitialEnergy)
	}
	if c.InitialLevels != nil {
		if len(c.InitialLevels) != c.N {
			return fmt.Errorf("sim: %d initial levels for %d hosts", len(c.InitialLevels), c.N)
		}
		for v, e := range c.InitialLevels {
			if e <= 0 {
				return fmt.Errorf("sim: non-positive initial level %v for host %d", e, v)
			}
		}
	}
	if c.Drop < 0 || c.Drop > 1 {
		return fmt.Errorf("sim: drop probability %v outside [0, 1]", c.Drop)
	}
	if c.Crashes < 0 || c.Crashes >= c.N {
		return fmt.Errorf("sim: %d crashes for %d hosts (need 0 <= crashes < N)", c.Crashes, c.N)
	}
	return nil
}

// Metrics reports the outcome of one run.
type Metrics struct {
	// Intervals is the number of completed update intervals before the
	// first host died — the paper's lifetime metric.
	Intervals int
	// Truncated is set when the run hit MaxIntervals with no death.
	Truncated bool
	// GatewayCounts holds |G'| per interval.
	GatewayCounts []int
	// MeanGateways is the average of GatewayCounts.
	MeanGateways float64
	// FirstDead is the id of the host that died (-1 if Truncated).
	FirstDead int
	// ResidualEnergy is the total energy remaining at stop.
	ResidualEnergy float64
	// ResidualVariance is the population variance of levels at stop — a
	// direct measure of how well the policy balanced consumption.
	ResidualVariance float64
	// DisconnectedIntervals counts intervals where the topology was not
	// connected (the marking still runs per component).
	DisconnectedIntervals int
}

// Run executes one lifetime simulation.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	m := &Metrics{FirstDead: -1}
	total := 0
	m.Intervals, m.Truncated, err = s.Run(func(interval int) (bool, error) {
		res, err := cds.Compute(s.Inst.Graph, cfg.Policy, s.Energy)
		if err != nil {
			return false, err
		}
		if cfg.Verify {
			if err := cds.VerifyCDS(s.Inst.Graph, res.Gateway); err != nil {
				return false, fmt.Errorf("sim: interval %d: %w", interval, err)
			}
		}
		if !s.Inst.Graph.IsConnected() {
			m.DisconnectedIntervals++
		}
		count := res.NumGateways()
		m.GatewayCounts = append(m.GatewayCounts, count)
		total += count

		energy.ApplyInterval(s.Levels, res.Gateway, cfg.Drain, cfg.NonGatewayDrain)
		if cfg.Observer != nil {
			cfg.Observer(interval, res, s.Levels)
		}
		return s.Levels.AnyDead(), nil
	})
	if err != nil {
		return nil, err
	}
	// A run that was not truncated stopped at a death; name the first host.
	for v := 0; v < cfg.N && !m.Truncated; v++ {
		if !s.Levels.Alive(v) {
			m.FirstDead = v
			break
		}
	}
	m.MeanGateways = float64(total) / float64(m.Intervals)
	m.ResidualEnergy = s.Levels.Total()
	m.ResidualVariance = s.Levels.Variance()
	return m, nil
}

// TrialStats aggregates metrics across independent trials.
type TrialStats struct {
	Trials        int
	Lifetime      []float64 // intervals per trial
	MeanGateways  []float64 // mean |G'| per trial
	TruncatedRuns int
}

// RunTrials executes trials independent runs of cfg one after another,
// deriving per-trial seeds from cfg.Seed; it is RunTrialsParallel with one
// worker.
func RunTrials(cfg Config, trials int) (*TrialStats, error) {
	return RunTrialsParallel(cfg, trials, 1)
}
