package sim

import (
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/energy"
	"pacds/internal/faults"
	"pacds/internal/xrand"
)

// Distributed lifetime simulation: the paper's update-interval procedure
// executed end-to-end through the message-passing maintenance session
// instead of the centralized CDS computation. Every interval the session
// absorbs the mobility-induced link events (localized NeighborList/Status
// traffic), energy-aware policies push fresh levels, the rule phase runs
// in slots, and the drain is applied to the session's gateway set. The
// run verifies, every interval, that the maintained set matches a fresh
// centralized computation — the whole-system integration check — and
// reports the cumulative protocol cost of operating the backbone for the
// network's entire life.

// DistributedMetrics extends the lifetime metrics with protocol costs.
type DistributedMetrics struct {
	// Intervals is the lifetime (update intervals before first death).
	Intervals int
	// Truncated is set when MaxIntervals was reached first.
	Truncated bool
	// MeanGateways is the average CDS size over intervals.
	MeanGateways float64
	// Messages and Deliveries are cumulative protocol costs, including
	// the bootstrap.
	Messages, Deliveries int
	// LinkEvents is the cumulative number of mobility-induced link
	// changes processed.
	LinkEvents int
	// Mismatches counts intervals where the session's gateway set
	// differed from the centralized computation (always 0; asserted by
	// tests, reported for visibility). Reliable path only.
	Mismatches int

	// The remaining fields are populated only when the run operates under
	// faults (Config.Drop > 0 or Config.Crashes > 0), where every interval
	// executes the hardened protocol end to end.
	//
	// Retransmissions, Drops, Duplicates, and Evictions are the cumulative
	// radio/fault costs across all intervals (see distributed.Stats).
	Retransmissions, Drops, Duplicates, Evictions int
	// HostCrashes is the number of hosts that failed permanently.
	HostCrashes int
	// DegradedIntervals counts intervals whose hardened run needed at
	// least one unmark revocation or finalization repair — the intervals
	// where fault tolerance visibly earned its keep.
	DegradedIntervals int
}

// RunDistributed executes the lifetime simulation through the
// maintenance session. Energy-aware policies incur one NeighborList
// broadcast per host per interval (their neighbors need current levels);
// topology-keyed policies pay only for link churn.
func RunDistributed(cfg Config) (*DistributedMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Drop > 0 || cfg.Crashes > 0 {
		return runDistributedFaulty(cfg, s)
	}
	session, err := distributed.NewSession(s.Inst.Graph, cfg.Policy, s.Energy)
	if err != nil {
		return nil, err
	}

	m := &DistributedMetrics{}
	gwSum := 0
	m.Intervals, m.Truncated, err = s.Run(func(interval int) (bool, error) {
		if interval > 1 {
			// Feed the session the last move's link changes, after fresh
			// levels for the energy-aware policies.
			changes := s.LinkChanges()
			m.LinkEvents += len(changes)
			if cfg.Policy.NeedsEnergy() {
				if err := session.UpdateEnergy(s.Energy); err != nil {
					return false, err
				}
			}
			if _, err := session.ApplyChanges(changes); err != nil {
				return false, err
			}
		}
		gateway := session.Gateways()
		// Whole-system check: the maintained set equals the centralized
		// computation on the current topology and energies.
		want, err := cds.Compute(s.Inst.Graph, cfg.Policy, s.Energy)
		if err != nil {
			return false, err
		}
		match := true
		count := 0
		for v := range gateway {
			if gateway[v] {
				count++
			}
			if gateway[v] != want.Gateway[v] {
				match = false
			}
		}
		if !match {
			m.Mismatches++
			if cfg.Verify {
				return false, fmt.Errorf("sim: interval %d: session diverged from centralized CDS", interval)
			}
		}
		gwSum += count

		energy.ApplyInterval(s.Levels, gateway, cfg.Drain, cfg.NonGatewayDrain)
		return s.Levels.AnyDead(), nil
	})
	if err != nil {
		return nil, err
	}
	stats := session.Stats()
	m.Messages = stats.Messages
	m.Deliveries = stats.Deliveries
	m.MeanGateways = float64(gwSum) / float64(m.Intervals)
	return m, nil
}

// runDistributedFaulty is the lifetime simulation over a faulty radio:
// every interval re-runs the hardened protocol from scratch (a session
// cannot carry state across intervals when hosts crash mid-protocol) with
// a fresh deterministic fault plan. Hosts crash permanently — one victim
// every third interval until Config.Crashes are down — and the crash round
// is always placed early enough that the protocol's healing epoch runs
// after the fault quiesces, so the graceful-degradation guarantee applies.
// LinkEvents stays zero on this path: there is no incremental session to
// feed link diffs to.
func runDistributedFaulty(cfg Config, s *Stepper) (*DistributedMetrics, error) {
	faultSeed := cfg.FaultSeed
	if faultSeed == 0 {
		faultSeed = cfg.Seed ^ 0x9e3779b97f4a7c15
	}
	faultRNG := xrand.New(faultSeed)

	crashed := make([]bool, cfg.N)
	survives := func(v int) bool { return !crashed[v] }
	crashesLeft := cfg.Crashes
	m := &DistributedMetrics{}
	gwSum := 0
	var err error
	m.Intervals, m.Truncated, err = s.Run(func(interval int) (bool, error) {
		// Assemble this interval's fault plan: hosts already down carry
		// over as round-1 crashes; every third interval a fresh victim
		// fails mid-protocol (early enough to quiesce before the healing
		// epoch).
		fcfg := faults.Config{Seed: faultRNG.Uint64(), Drop: cfg.Drop}
		for v, down := range crashed {
			if down {
				fcfg.Crashes = append(fcfg.Crashes, faults.Crash{Node: v, AtRound: 1})
			}
		}
		if crashesLeft > 0 && interval >= 2 && (interval-2)%3 == 0 {
			victim := pickSurvivor(faultRNG, crashed)
			fcfg.Crashes = append(fcfg.Crashes,
				faults.Crash{Node: victim, AtRound: 5 + faultRNG.Intn(20)})
			crashed[victim] = true
			crashesLeft--
			m.HostCrashes++
		}
		plan, err := faults.NewPlan(fcfg)
		if err != nil {
			return false, err
		}

		res, err := distributed.RunHardened(s.Inst.Graph, cfg.Policy, s.Energy,
			distributed.HardenedConfig{Faults: plan})
		if err != nil {
			return false, err
		}
		stats := res.Stats
		m.Messages += stats.Messages
		m.Deliveries += stats.Deliveries
		m.Retransmissions += stats.Retransmissions
		m.Drops += stats.Drops
		m.Duplicates += stats.Duplicates
		m.Evictions += stats.Evictions
		if stats.Revocations > 0 || stats.Repairs > 0 {
			m.DegradedIntervals++
		}
		if cfg.Verify {
			if err := cds.VerifySurvivorCDS(s.Inst.Graph, res.Alive, res.Gateway); err != nil {
				return false, fmt.Errorf("sim: interval %d: %w", interval, err)
			}
		}
		if cfg.FaultObserver != nil {
			cfg.FaultObserver(interval, stats)
		}
		for _, gw := range res.Gateway {
			if gw {
				gwSum++
			}
		}

		// Drain the survivors only: a crashed host is powered off, so its
		// residual energy is frozen (and its death never ends the run).
		drainActive(s.Levels, res.Gateway, cfg, survives)
		for v := 0; v < cfg.N; v++ {
			if survives(v) && !s.Levels.Alive(v) {
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	m.MeanGateways = float64(gwSum) / float64(m.Intervals)
	return m, nil
}

// pickSurvivor deterministically selects a not-yet-crashed host.
// Config.Validate guarantees Crashes < N, so one always exists.
func pickSurvivor(rng *xrand.RNG, crashed []bool) int {
	var alive []int
	for v, down := range crashed {
		if !down {
			alive = append(alive, v)
		}
	}
	return alive[rng.Intn(len(alive))]
}
