package sim

import (
	"testing"

	"pacds/internal/cds"
	"pacds/internal/energy"
)

func churnCfg(n int, p cds.Policy, off, onP float64, seed uint64) ChurnConfig {
	return ChurnConfig{
		Config:  PaperConfig(n, p, energy.ConstantPerGW{}, seed),
		OffProb: off,
		OnProb:  onP,
	}
}

func TestChurnZeroMatchesPlainRun(t *testing.T) {
	// OffProb = 0: nobody ever switches off, so the dynamics equal the
	// plain lifetime run with the same seed schedule, per-host initial
	// levels included: host 3 starting at 5 dies first in both.
	uneven := churnCfg(30, cds.EL1, 0, 1, 7)
	uneven.Drain = energy.Linear{}
	uneven.InitialLevels = make([]float64, 30)
	for v := range uneven.InitialLevels {
		uneven.InitialLevels[v] = 100
	}
	uneven.InitialLevels[3] = 5
	for _, cfg := range []ChurnConfig{churnCfg(20, cds.ND, 0, 1, 42), uneven} {
		cm, err := RunChurn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := Run(cfg.Config)
		if err != nil {
			t.Fatal(err)
		}
		if cm.Intervals != pm.Intervals || cm.MeanGateways != pm.MeanGateways {
			t.Fatalf("N=%d: zero-churn lifetime %d (mean gateways %v) != plain %d (%v)",
				cfg.N, cm.Intervals, cm.MeanGateways, pm.Intervals, pm.MeanGateways)
		}
		if cm.MeanOn != float64(cfg.N) {
			t.Fatalf("N=%d: MeanOn = %v, want %d", cfg.N, cm.MeanOn, cfg.N)
		}
	}
}

func TestChurnExtendsLifetime(t *testing.T) {
	// Switching off saves energy: with substantial off-time the first
	// battery death comes later than with everyone always on.
	var base, churned int
	for seed := uint64(0); seed < 6; seed++ {
		b, err := RunChurn(churnCfg(25, cds.ND, 0, 1, 100+seed))
		if err != nil {
			t.Fatal(err)
		}
		base += b.Intervals
		c, err := RunChurn(churnCfg(25, cds.ND, 0.3, 0.3, 100+seed))
		if err != nil {
			t.Fatal(err)
		}
		churned += c.Intervals
		if c.MeanOn >= 25 {
			t.Fatalf("seed %d: MeanOn = %v with 30%% off-rate", seed, c.MeanOn)
		}
	}
	if churned <= base {
		t.Fatalf("churned total lifetime %d should exceed always-on %d", churned, base)
	}
}

func TestChurnDisconnectsNetwork(t *testing.T) {
	// Heavy off-rates fragment the ON subgraph.
	m, err := RunChurn(churnCfg(25, cds.ID, 0.5, 0.2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if m.DisconnectedIntervals == 0 {
		t.Fatal("heavy churn never disconnected the network")
	}
}

func TestChurnVerified(t *testing.T) {
	cfg := churnCfg(20, cds.EL1, 0.2, 0.5, 11)
	cfg.Verify = true
	if _, err := RunChurn(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestChurnValidation(t *testing.T) {
	bad := churnCfg(10, cds.ID, -0.1, 0.5, 1)
	if _, err := RunChurn(bad); err == nil {
		t.Fatal("negative OffProb accepted")
	}
	bad = churnCfg(10, cds.ID, 0.1, 1.5, 1)
	if _, err := RunChurn(bad); err == nil {
		t.Fatal("OnProb > 1 accepted")
	}
	bad = churnCfg(0, cds.ID, 0.1, 0.5, 1)
	if _, err := RunChurn(bad); err == nil {
		t.Fatal("invalid base config accepted")
	}
}

func TestChurnDeterministic(t *testing.T) {
	a, err := RunChurn(churnCfg(15, cds.EL2, 0.2, 0.4, 33))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(churnCfg(15, cds.EL2, 0.2, 0.4, 33))
	if err != nil {
		t.Fatal(err)
	}
	if a.Intervals != b.Intervals || a.MeanOn != b.MeanOn {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
