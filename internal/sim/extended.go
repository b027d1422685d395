package sim

import (
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/energy"
)

// ExtendedMetrics reports a run that continues past the first death — the
// paper's future-work direction ("more in-depth simulation under
// different settings"). Dead hosts drop out of the topology; the marking
// process and rules keep running on the survivors.
type ExtendedMetrics struct {
	// DeathIntervals[k] is the interval at which the (k+1)-th host died.
	DeathIntervals []int
	// FirstDeath and HalfDeath are convenience cuts of DeathIntervals
	// (0 when never reached within the cap).
	FirstDeath, HalfDeath int
	// Intervals completed when the run stopped.
	Intervals int
	// Truncated is set when MaxIntervals was reached first.
	Truncated bool
	// MeanGateways is the average CDS size over intervals (survivors
	// only).
	MeanGateways float64
}

// RunExtended executes a lifetime simulation that continues until the
// alive fraction drops below stopAliveFrac (default 0.5) or MaxIntervals.
// The Verify flag of cfg is honored against the alive-host subgraph.
func RunExtended(cfg Config, stopAliveFrac float64) (*ExtendedMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stopAliveFrac <= 0 || stopAliveFrac >= 1 {
		stopAliveFrac = 0.5
	}
	s, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	m := &ExtendedMetrics{}
	gwSum := 0
	m.Intervals, m.Truncated, err = s.Run(func(interval int) (bool, error) {
		g := s.Restricted(s.Levels.Alive)
		res, err := cds.Compute(g, cfg.Policy, s.Energy)
		if err != nil {
			return false, err
		}
		if cfg.Verify {
			if err := cds.VerifyCDS(g, res.Gateway); err != nil {
				return false, fmt.Errorf("sim: extended interval %d: %w", interval, err)
			}
		}
		gwSum += res.NumGateways()
		energy.ApplyInterval(s.Levels, res.Gateway, cfg.Drain, cfg.NonGatewayDrain)

		for cfg.N-s.Levels.NumAlive() > len(m.DeathIntervals) {
			m.DeathIntervals = append(m.DeathIntervals, interval)
		}
		return float64(s.Levels.NumAlive()) < stopAliveFrac*float64(cfg.N), nil
	})
	if err != nil {
		return nil, err
	}

	if len(m.DeathIntervals) > 0 {
		m.FirstDeath = m.DeathIntervals[0]
	}
	if half := (cfg.N + 1) / 2; len(m.DeathIntervals) >= half {
		m.HalfDeath = m.DeathIntervals[half-1]
	}
	m.MeanGateways = float64(gwSum) / float64(m.Intervals)
	return m, nil
}
