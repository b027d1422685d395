package cds

import (
	"math"
	"testing"

	"pacds/internal/graph"
	"pacds/internal/xrand"
)

// TestResweepAllSeedsMatchesApplyRules: seeded with every host, the
// worklist sweep re-decides every slot in ID order, so whatever stale
// statuses gw1 and gw2 held, it must land on the whole-graph pass.
func TestResweepAllSeedsMatchesApplyRules(t *testing.T) {
	rng := xrand.New(1301)
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(70)
		g := randomConnectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng)
		marked := Mark(g)
		for _, p := range []Policy{ID, ND, EL1, EL2} {
			want1, _ := ApplyRule1Only(g, p, marked, energy)
			want, _ := ApplyRules(g, p, marked, energy)
			r, err := Bind(g, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			gw1, gw2 := make([]bool, n), make([]bool, n)
			for v := range gw1 {
				gw1[v], gw2[v] = rng.Bool(0.5), rng.Bool(0.5)
			}
			stale := append([]bool(nil), gw2...)
			var f1, f2, flipped Worklist
			f1.Init(n)
			f2.Init(n)
			flipped.Init(n)
			for v := n - 1; v >= 0; v-- {
				f1.Add(graph.NodeID(v))
			}
			r.Resweep(marked, gw1, gw2, &f1, &f2, &flipped)
			if !equalBools(gw1, want1) || !equalBools(gw2, want) {
				t.Fatalf("trial %d policy %v: all-seed resweep differs from the whole-graph pass", trial, p)
			}
			checkFlipped(t, stale, gw2, &flipped)
			if len(f2.List()) != n {
				t.Fatalf("trial %d policy %v: Rule-2 worklist holds %d of %d hosts", trial, p, len(f2.List()), n)
			}
		}
	}
}

// TestResweepLocalChangeMatchesApplyRules: after one link toggle, seeding
// the worklist with the slots whose inputs changed — the endpoints, the
// hosts whose marker flipped, and their neighbors — must reproduce the
// whole-graph pass over the new marking, with the cascades the worklist
// admits along the way.
func TestResweepLocalChangeMatchesApplyRules(t *testing.T) {
	rng := xrand.New(1303)
	local := 0
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(60)
		g := randomConnectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng)
		p := Policies[1+rng.Intn(len(Policies)-1)]
		r, err := Bind(g, p, energy)
		if err != nil {
			t.Fatal(err)
		}
		marked := Mark(g)
		gw1, _ := ApplyRule1Only(g, p, marked, energy)
		gw2, _ := ApplyRules(g, p, marked, energy)

		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if !g.RemoveEdge(a, b) {
			g.AddEdge(a, b)
		}
		var seed, f2, flipped Worklist
		seed.Init(n)
		f2.Init(n)
		flipped.Init(n)
		fresh := Mark(g)
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			if id == a || id == b || fresh[v] != marked[v] {
				seed.Add(id)
				for _, u := range g.Neighbors(id) {
					seed.Add(u)
				}
			}
		}
		old := append([]bool(nil), gw2...)
		r.Resweep(fresh, gw1, gw2, &seed, &f2, &flipped)

		want1, _ := ApplyRule1Only(g, p, fresh, energy)
		want, _ := ApplyRules(g, p, fresh, energy)
		if !equalBools(gw1, want1) || !equalBools(gw2, want) {
			t.Fatalf("trial %d policy %v toggle %d-%d: resweep differs from the whole-graph pass", trial, p, a, b)
		}
		checkFlipped(t, old, gw2, &flipped)
		if len(f2.List()) < n {
			local++
		}
	}
	if local == 0 {
		t.Fatal("no toggle stayed local: every resweep visited the whole graph")
	}
}

// checkFlipped checks that flipped holds exactly the hosts whose status
// differs between before and after.
func checkFlipped(t *testing.T, before, after []bool, flipped *Worklist) {
	t.Helper()
	changed := 0
	for v := range after {
		if before[v] != after[v] {
			changed++
		}
		if flipped.Has(graph.NodeID(v)) != (before[v] != after[v]) {
			t.Fatalf("host %d: in flipped = %v, status %v -> %v", v, flipped.Has(graph.NodeID(v)), before[v], after[v])
		}
	}
	if len(flipped.List()) != changed {
		t.Fatalf("flipped lists %d hosts, %d changed", len(flipped.List()), changed)
	}
}

func TestWorklistResetWraparound(t *testing.T) {
	var w Worklist
	w.Init(3)
	w.Add(1)
	w.Add(1)
	if !w.Has(1) || w.Has(2) || len(w.List()) != 1 {
		t.Fatalf("members %v", w.List())
	}
	// Force the epoch to wrap: a stamp left from a previous epoch must not
	// read as membership afterwards.
	w.cur = math.MaxUint32
	w.stamp[2] = 1
	w.Reset()
	if w.Has(1) || w.Has(2) || len(w.List()) != 0 {
		t.Fatalf("after wraparound: has(1)=%v has(2)=%v members %v", w.Has(1), w.Has(2), w.List())
	}
}

// TestFiresOnPassOutputAndMarking checks the one-shot decision against
// the whole-graph pass: no gateway it keeps may fire against its output
// (the monotonicity theorem), the first host it removes fires against the
// raw marking (its slot saw the marking, or a subset of it), and NR never
// fires.
func TestFiresOnPassOutputAndMarking(t *testing.T) {
	rng := xrand.New(1307)
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(70)
		g := randomConnectedUDG(t, n, rng.Uint64())
		energy := randomEnergy(n, rng)
		marked := Mark(g)
		for _, p := range Policies {
			r, err := Bind(g, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := ApplyRules(g, p, marked, energy)
			first := -1
			for v := 0; v < n; v++ {
				if out[v] && r.Fires(out, graph.NodeID(v)) {
					t.Fatalf("trial %d policy %v: kept gateway %d fires against the pass output", trial, p, v)
				}
				if p == NR && r.Fires(marked, graph.NodeID(v)) {
					t.Fatalf("trial %d: host %d fires under NR", trial, v)
				}
				if first < 0 && marked[v] && !out[v] {
					first = v
				}
			}
			if first >= 0 && !r.Fires(marked, graph.NodeID(first)) {
				t.Fatalf("trial %d policy %v: first removed host %d does not fire against the marking", trial, p, first)
			}
		}
	}
}
