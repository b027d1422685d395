package cds

import (
	"testing"

	"pacds/internal/xrand"
)

func TestFixpointPreservesCDS(t *testing.T) {
	rng := xrand.New(808)
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(60)
		g := randomConnectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng)
		marked := Mark(g)
		for _, p := range []Policy{ID, ND, EL1, EL2} {
			gw, passes, err := ApplyRulesFixpoint(g, p, marked, energy)
			if err != nil {
				t.Fatal(err)
			}
			if passes < 1 {
				t.Fatalf("passes = %d", passes)
			}
			if err := VerifyCDS(g, gw); err != nil {
				t.Fatalf("trial %d policy %v: %v", trial, p, err)
			}
		}
	}
}

func TestFixpointNeverLargerThanSinglePass(t *testing.T) {
	rng := xrand.New(909)
	improved := 0
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(60)
		g := randomConnectedUDG(t, n, rng.Uint64())
		marked := Mark(g)
		single, err := ApplyRules(g, ND, marked, nil)
		if err != nil {
			t.Fatal(err)
		}
		fix, _, err := ApplyRulesFixpoint(g, ND, marked, nil)
		if err != nil {
			t.Fatal(err)
		}
		if CountGateways(fix) > CountGateways(single) {
			t.Fatalf("trial %d: fixpoint %d > single %d", trial,
				CountGateways(fix), CountGateways(single))
		}
		if CountGateways(fix) < CountGateways(single) {
			improved++
		}
	}
	t.Logf("fixpoint strictly improved %d/25 instances", improved)
}

func TestFixpointIdempotent(t *testing.T) {
	g := randomConnectedUDG(t, 50, 3)
	marked := Mark(g)
	fix, _, err := ApplyRulesFixpoint(g, ND, marked, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, passes, err := ApplyRulesFixpoint(g, ND, fix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 1 && CountGateways(again) != CountGateways(fix) {
		t.Fatalf("fixpoint not stable: %d -> %d gateways",
			CountGateways(fix), CountGateways(again))
	}
}

func TestFixpointNR(t *testing.T) {
	g := randomConnectedUDG(t, 20, 5)
	marked := Mark(g)
	out, passes, err := ApplyRulesFixpoint(g, NR, marked, nil)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 2 { // first pass no-op, second confirms stability
		t.Logf("NR passes = %d", passes)
	}
	for v := range out {
		if out[v] != marked[v] {
			t.Fatal("NR fixpoint changed markers")
		}
	}
}

func TestFixpointEnergyValidation(t *testing.T) {
	g := randomConnectedUDG(t, 10, 7)
	if _, _, err := ApplyRulesFixpoint(g, EL1, Mark(g), nil); err == nil {
		t.Fatal("EL1 without energy accepted")
	}
}

func TestFixpointMatchesRescan(t *testing.T) {
	// The monotonicity theorem says the single sequential pass IS the
	// fixpoint; this checks it against the full-rescan reference on every
	// policy — same gateway set, not just the same size.
	rng := xrand.New(515)
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(80)
		g := randomConnectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng)
		marked := Mark(g)
		for _, p := range Policies {
			fast, _, err := ApplyRulesFixpoint(g, p, marked, energy)
			if err != nil {
				t.Fatal(err)
			}
			slow, _, err := ApplyRulesFixpointRescan(g, p, marked, energy)
			if err != nil {
				t.Fatal(err)
			}
			for v := range fast {
				if fast[v] != slow[v] {
					t.Fatalf("trial %d policy %v: node %d dirty=%v rescan=%v",
						trial, p, v, fast[v], slow[v])
				}
			}
		}
	}
}

func TestFixpointDeterministic(t *testing.T) {
	g := randomConnectedUDG(t, 70, 99)
	marked := Mark(g)
	first, passes1, err := ApplyRulesFixpoint(g, ND, marked, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, passes2, err := ApplyRulesFixpoint(g, ND, marked, nil)
		if err != nil {
			t.Fatal(err)
		}
		if passes1 != passes2 {
			t.Fatalf("pass count varies: %d vs %d", passes1, passes2)
		}
		for v := range first {
			if first[v] != again[v] {
				t.Fatalf("run %d: node %d differs", i, v)
			}
		}
	}
}

func TestFixpointDoesNotMutateInput(t *testing.T) {
	g := randomConnectedUDG(t, 40, 17)
	marked := Mark(g)
	snapshot := append([]bool(nil), marked...)
	if _, _, err := ApplyRulesFixpoint(g, ND, marked, nil); err != nil {
		t.Fatal(err)
	}
	for v := range marked {
		if marked[v] != snapshot[v] {
			t.Fatal("fixpoint mutated the marking snapshot")
		}
	}
}
