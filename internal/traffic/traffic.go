// Package traffic is a packet-level refinement of the paper's lifetime
// experiment. Instead of charging gateways an abstract per-interval drain
// d, it routes actual packet flows through the connected dominating set
// and charges per-hop transmit/receive costs to the hosts that do the
// forwarding work. The paper's premise — gateways handle bypass traffic
// and therefore drain faster — emerges from the forwarding itself, which
// makes the drain-model interpretation question of EXPERIMENTS.md moot
// for this experiment: whichever hosts actually relay packets pay for
// them.
package traffic

import (
	"errors"
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/routing"
	"pacds/internal/sim"
)

// Flow is a constant-bit-rate conversation between two hosts.
type Flow struct {
	Src, Dst graph.NodeID
}

// Config parameterizes a packet-level simulation.
type Config struct {
	// Network geometry, as in the paper's setup.
	N      int
	Field  geom.Rect
	Radius float64
	// Policy selects the CDS pruning rules.
	Policy cds.Policy
	// InitialEnergy per host (paper: 100).
	InitialEnergy float64
	// NumFlows random source/destination pairs, re-drawn once at start.
	NumFlows int
	// PacketsPerInterval per flow.
	PacketsPerInterval int
	// TxCost and RxCost are the per-packet per-hop energy charges for the
	// sender and the receiver of a hop. IdleCost is charged to every
	// alive host once per interval (the d' analogue).
	TxCost, RxCost, IdleCost float64
	// Mobility model (nil = static).
	Mobility mobility.Model
	// EnergyAwareRouting routes each packet along the gateway path that
	// maximizes the minimum residual energy of its relays (max-min /
	// widest-path selection) instead of the hop-count shortest gateway
	// path. An extension pairing the paper's CDS with power-aware route
	// selection.
	EnergyAwareRouting bool
	// ContinueAfterDeath keeps simulating with dead hosts removed from
	// the topology until the stop condition below; otherwise the run ends
	// at the first death, as in the paper.
	ContinueAfterDeath bool
	// StopWhenAliveBelow ends a ContinueAfterDeath run when the alive
	// fraction drops below this value (default 0.5).
	StopWhenAliveBelow float64
	// MaxIntervals caps the run (default 100000).
	MaxIntervals int
	Seed         uint64
}

// PaperConfig returns a traffic configuration matching the paper's
// simulation field with a moderate constant-bit-rate load.
func PaperConfig(n int, p cds.Policy, seed uint64) Config {
	return Config{
		N:                  n,
		Field:              geom.Square(100),
		Radius:             25,
		Policy:             p,
		InitialEnergy:      100,
		NumFlows:           n / 2,
		PacketsPerInterval: 1,
		TxCost:             0.05,
		RxCost:             0.02,
		IdleCost:           0.01,
		Mobility:           mobility.NewPaper(),
		Seed:               seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("traffic: N must be positive, got %d", c.N)
	}
	if c.Radius <= 0 {
		return fmt.Errorf("traffic: radius must be positive, got %v", c.Radius)
	}
	if c.InitialEnergy <= 0 {
		return errors.New("traffic: initial energy must be positive")
	}
	if c.NumFlows < 0 || c.PacketsPerInterval < 0 {
		return errors.New("traffic: negative load")
	}
	if c.TxCost < 0 || c.RxCost < 0 || c.IdleCost < 0 {
		return errors.New("traffic: negative cost")
	}
	return nil
}

// Metrics reports a run's outcome.
type Metrics struct {
	// Intervals completed when the run stopped.
	Intervals int
	// FirstDeathInterval is when the first host died (0 if none did).
	FirstDeathInterval int
	// Offered, Delivered and Dropped count packets. Offered = Delivered +
	// Dropped always holds.
	Offered, Delivered, Dropped int
	// TotalHops across delivered packets.
	TotalHops int
	// GatewayForwards counts per-hop relays performed by gateway hosts;
	// with CDS routing every interior relay is a gateway, so this tracks
	// the bypass burden the paper describes.
	GatewayForwards int
	// MeanGateways is the average CDS size over intervals.
	MeanGateways float64
	// AliveAtEnd is the number of hosts still functioning.
	AliveAtEnd int
	// Truncated is set when MaxIntervals was hit.
	Truncated bool
}

// DeliveryRatio returns Delivered / Offered (1 for no offered load).
func (m *Metrics) DeliveryRatio() float64 {
	if m.Offered == 0 {
		return 1
	}
	return float64(m.Delivered) / float64(m.Offered)
}

// MeanHops returns TotalHops / Delivered (0 when nothing was delivered).
func (m *Metrics) MeanHops() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.TotalHops) / float64(m.Delivered)
}

// Run executes one packet-level simulation. Its interval loop is a body
// over sim.Stepper: the run starts connected, flows are drawn from the
// stepper's third stream, and hosts move between intervals.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stopBelow := cfg.StopWhenAliveBelow
	if stopBelow <= 0 {
		stopBelow = 0.5
	}
	s, err := sim.NewStepper(sim.Config{
		N: cfg.N, Field: cfg.Field, Radius: cfg.Radius, InitialEnergy: cfg.InitialEnergy,
		Mobility: cfg.Mobility, MaxIntervals: cfg.MaxIntervals, Seed: cfg.Seed, ConnectedStart: true,
	})
	if err != nil {
		return nil, err
	}
	levels := s.Levels

	flows := make([]Flow, cfg.NumFlows)
	for i := range flows {
		src := graph.NodeID(s.RNG.Intn(cfg.N))
		dst := graph.NodeID(s.RNG.Intn(cfg.N))
		for dst == src && cfg.N > 1 {
			dst = graph.NodeID(s.RNG.Intn(cfg.N))
		}
		flows[i] = Flow{Src: src, Dst: dst}
	}

	m := &Metrics{}
	gwSum := 0
	m.Intervals, m.Truncated, err = s.Run(func(interval int) (bool, error) {
		// Topology over alive hosts only.
		g := s.Restricted(levels.Alive)
		res, err := cds.Compute(g, cfg.Policy, s.Energy)
		if err != nil {
			return false, err
		}
		gwSum += res.NumGateways()
		router, err := routing.New(g, res.Gateway)
		if err != nil {
			return false, err
		}

		// Offer the interval's load.
		for _, f := range flows {
			for p := 0; p < cfg.PacketsPerInterval; p++ {
				m.Offered++
				if !levels.Alive(int(f.Src)) || !levels.Alive(int(f.Dst)) {
					m.Dropped++
					continue
				}
				var path []graph.NodeID
				var rerr error
				if cfg.EnergyAwareRouting {
					path, rerr = router.RouteMaxMin(f.Src, f.Dst, s.Energy)
				} else {
					path, rerr = router.Route(f.Src, f.Dst)
				}
				if rerr != nil {
					m.Dropped++
					continue
				}
				m.Delivered++
				m.TotalHops += len(path) - 1
				for i := 0; i < len(path)-1; i++ {
					levels.Drain(int(path[i]), cfg.TxCost)
					levels.Drain(int(path[i+1]), cfg.RxCost)
					if i > 0 && res.Gateway[path[i]] {
						m.GatewayForwards++
					}
				}
			}
		}

		// Idle drain for every alive host.
		for v := 0; v < cfg.N; v++ {
			if levels.Alive(v) {
				levels.Drain(v, cfg.IdleCost)
			}
		}

		if levels.AnyDead() && m.FirstDeathInterval == 0 {
			m.FirstDeathInterval = interval
			if !cfg.ContinueAfterDeath {
				return true, nil
			}
		}
		return cfg.ContinueAfterDeath && float64(levels.NumAlive()) < stopBelow*float64(cfg.N), nil
	})
	if err != nil {
		return nil, err
	}

	m.MeanGateways = float64(gwSum) / float64(m.Intervals)
	m.AliveAtEnd = levels.NumAlive()
	return m, nil
}
