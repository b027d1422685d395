package distributed

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// goldenSessionLines drives a Session through a seeded history for every
// policy on the tiny graphs and on paper-density instances, and prints
// the session's observable state after bootstrap and after every batch
// or energy refresh: epoch, the marker count ApplyChanges returns, the
// frontier size, the gateway set and every Stats field.
func goldenSessionLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for pi, p := range cds.Policies {
		for _, g := range []*graph.Graph{graph.New(1), graph.Path(2), graph.Complete(3)} {
			name := fmt.Sprintf("tiny%d/%v", g.NumNodes(), p)
			lines = append(lines, sessionHistory(t, name, p, g, nil, xrand.Mix(uint64(g.NumNodes()), uint64(pi)))...)
		}
		for _, n := range []int{30, 100} {
			inst, err := udg.RandomConnected(udg.PaperConfig(n), xrand.New(uint64(n)), 2000)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("n=%d/%v", n, p)
			lines = append(lines, sessionHistory(t, name, p, inst.Graph, inst, xrand.Mix(uint64(n), uint64(pi)))...)
		}
	}
	return lines
}

// sessionHistory runs one seeded history: mobility batches (random link
// toggles when inst is nil), an energy refresh that changes no level and
// refreshes that change some, an empty batch, a batch of an up for an
// existing link and a down for a missing one, and a batch that takes one
// link down and back up. inst, when set, is moved in place.
func sessionHistory(t *testing.T, name string, p cds.Policy, g *graph.Graph, inst *udg.Instance, seed uint64) []string {
	t.Helper()
	rng := xrand.New(seed)
	n := g.NumNodes()
	energy := make([]float64, n)
	for i := range energy {
		energy[i] = float64(rng.IntRange(1, 10)) * 10
	}
	s, err := NewSession(g, p, energy)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	record := func(op string) {
		var gw []int
		for v, on := range s.Gateways() {
			if on {
				gw = append(gw, v)
			}
		}
		lines = append(lines, fmt.Sprintf("%s %s epoch=%d frontier=%d gateways=%v %+v",
			name, op, s.Epoch(), s.LastFrontier(), gw, s.Stats()))
	}
	batch := func(op string, changes []EdgeChange) {
		changed, err := s.ApplyChanges(changes)
		if err != nil {
			t.Fatalf("%s %s: %v", name, op, err)
		}
		record(fmt.Sprintf("%s changed=%d", op, changed))
	}
	refresh := func(op string, drain bool) {
		if drain {
			for i := range energy {
				if i == 0 || rng.Bool(0.3) {
					energy[i] -= float64(rng.IntRange(1, 4))
				}
			}
		}
		if err := s.UpdateEnergy(energy); err != nil {
			t.Fatalf("%s %s: %v", name, op, err)
		}
		record(op)
	}
	model := mobility.NewPaper()
	move := func() []EdgeChange {
		if inst != nil {
			return applyMobilityStep(inst, model, rng)
		}
		cur := s.Graph()
		var changes []EdgeChange
		for u := graph.NodeID(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				if rng.Bool(0.5) {
					changes = append(changes, EdgeChange{A: u, B: v, Up: !cur.HasEdge(u, v)})
				}
			}
		}
		return changes
	}
	// edge returns a link of the current topology, or ok false if it has
	// none; missing returns a host pair without one.
	edge := func() (EdgeChange, bool) {
		var all []EdgeChange
		s.Graph().Edges(func(u, v graph.NodeID) { all = append(all, EdgeChange{A: u, B: v}) })
		if len(all) == 0 {
			return EdgeChange{}, false
		}
		return all[rng.Intn(len(all))], true
	}
	missing := func() (EdgeChange, bool) {
		cur := s.Graph()
		var all []EdgeChange
		for u := graph.NodeID(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				if !cur.HasEdge(u, v) {
					all = append(all, EdgeChange{A: u, B: v})
				}
			}
		}
		if len(all) == 0 {
			return EdgeChange{}, false
		}
		return all[rng.Intn(len(all))], true
	}

	record("bootstrap")
	batch("mobility", move())
	batch("mobility", move())
	refresh("energy-unchanged", false)
	batch("mobility", move())
	refresh("energy-drained", true)
	batch("mobility", move())
	var noop []EdgeChange
	if e, ok := edge(); ok {
		e.Up = true
		noop = append(noop, e)
	}
	if e, ok := missing(); ok {
		noop = append(noop, e)
	}
	batch("existing-up-missing-down", noop)
	var downUp []EdgeChange
	if e, ok := edge(); ok {
		downUp = append(downUp, e, EdgeChange{A: e.A, B: e.B, Up: true})
	}
	batch("down-up", downUp)
	refresh("energy-drained", true)
	batch("empty", nil)
	batch("mobility", move())
	return lines
}

// TestSessionGolden pins a Session's observable state over seeded
// histories to values recorded before the session stopped simulating its
// hosts. Regenerate with `go test ./internal/distributed/ -run
// TestSessionGolden -update` only for a change meant to alter them.
func TestSessionGolden(t *testing.T) {
	lines := goldenSessionLines(t)
	path := filepath.Join("testdata", "golden.txt")
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d result lines, golden file has %d", len(lines), len(want))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, lines[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d lines differ", bad, len(lines))
	}
}
