package sim

import (
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/energy"
)

// On/off churn — the paper's introduction singles this out: "the
// limitation of power leads users [to] disconnect [the] mobile unit
// frequently in order to save power consumption. This feature may also
// introduce ... more failures (also called switching on/off), which can
// be considered as a special form of mobility."
//
// RunChurn extends the lifetime simulation with per-interval switching:
// an ON host switches off with probability OffProb; an OFF host returns
// with probability OnProb. OFF hosts carry no links, take no gateway
// role, and drain no energy (that is the point of switching off). The
// CDS is computed over the ON subgraph each interval.

// ChurnConfig wraps a lifetime Config with switching probabilities.
type ChurnConfig struct {
	Config
	// OffProb is the per-interval probability an ON host switches off.
	OffProb float64
	// OnProb is the per-interval probability an OFF host switches on.
	OnProb float64
}

// ChurnMetrics reports a churn run.
type ChurnMetrics struct {
	// Intervals is the lifetime (first battery death among hosts; OFF
	// hosts cannot die).
	Intervals int
	// Truncated is set when MaxIntervals was reached.
	Truncated bool
	// MeanGateways is the average CDS size over intervals (ON hosts).
	MeanGateways float64
	// MeanOn is the average number of ON hosts per interval.
	MeanOn float64
	// DisconnectedIntervals counts intervals where the ON subgraph was
	// not connected.
	DisconnectedIntervals int
}

// RunChurn executes one lifetime simulation with on/off switching.
func RunChurn(cfg ChurnConfig) (*ChurnMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.OffProb < 0 || cfg.OffProb > 1 || cfg.OnProb < 0 || cfg.OnProb > 1 {
		return nil, fmt.Errorf("sim: churn probabilities must be in [0, 1]")
	}
	s, err := NewStepper(cfg.Config)
	if err != nil {
		return nil, err
	}
	on := make([]bool, cfg.N)
	for i := range on {
		on[i] = true
	}
	isOn := func(v int) bool { return on[v] }
	m := &ChurnMetrics{}
	gwSum, onSum := 0, 0
	m.Intervals, m.Truncated, err = s.Run(func(interval int) (bool, error) {
		// Every interval after the first starts by switching: one draw per
		// host decides whether it flips.
		if interval > 1 {
			for v := range on {
				flip := cfg.OnProb
				if on[v] {
					flip = cfg.OffProb
				}
				if s.RNG.Float64() < flip {
					on[v] = !on[v]
				}
			}
		}
		g := s.Restricted(isOn)
		res, err := cds.Compute(g, cfg.Policy, s.Energy)
		if err != nil {
			return false, err
		}
		if cfg.Verify {
			if err := cds.VerifyCDS(g, res.Gateway); err != nil {
				return false, fmt.Errorf("sim: churn interval %d: %w", interval, err)
			}
		}
		if !g.IsConnected() {
			m.DisconnectedIntervals++
		}
		gwSum += res.NumGateways()
		for _, o := range on {
			if o {
				onSum++
			}
		}
		drainActive(s.Levels, res.Gateway, cfg.Config, isOn)
		return s.Levels.AnyDead(), nil
	})
	if err != nil {
		return nil, err
	}
	m.MeanGateways = float64(gwSum) / float64(m.Intervals)
	m.MeanOn = float64(onSum) / float64(m.Intervals)
	return m, nil
}

// drainActive applies one interval's drain as energy.ApplyInterval does,
// but only to the hosts active accepts: the others keep their level. The
// gateway drain d still follows the size of the whole gateway set.
func drainActive(levels *energy.Levels, gateway []bool, cfg Config, active func(v int) bool) {
	cdsSize := 0
	for _, gw := range gateway {
		if gw {
			cdsSize++
		}
	}
	var d float64
	if cdsSize > 0 {
		d = cfg.Drain.GatewayDrain(cfg.N, cdsSize)
	}
	for v, gw := range gateway {
		if !active(v) || !levels.Alive(v) {
			continue
		}
		if gw {
			levels.Drain(v, d)
		} else {
			levels.Drain(v, cfg.NonGatewayDrain)
		}
	}
}
