package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/energy"
	"pacds/internal/mobility"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// goldenDrains are the drain models the golden table crosses with every
// policy and size: the paper's three literal models and one per-gateway
// model.
var goldenDrains = []energy.DrainModel{energy.Constant{}, energy.Linear{}, energy.Quadratic{}, energy.LinearPerGW{}}

// goldenLines runs every lifetime loop of the package over a seeded table
// of configurations and prints each full result struct on one line.
// Floats print in their shortest round-trip form, so equal lines mean
// bit-identical results.
func goldenLines() []string {
	var lines []string
	add := func(name string, res any, err error) {
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s error: %v", name, err))
			return
		}
		lines = append(lines, fmt.Sprintf("%s %+v", name, res))
	}
	for _, n := range []int{8, 20, 45} {
		for pi, p := range cds.Policies {
			for di, d := range goldenDrains {
				seed := uint64(1000*n + 10*pi + di)
				cfg := PaperConfig(n, p, d, seed)
				key := fmt.Sprintf("n=%d/%v/%s", n, p, d.Name())

				m, err := Run(cfg)
				add("run/"+key, m, err)

				static := cfg
				static.Mobility = nil
				static.MaxIntervals = 40
				m, err = Run(static)
				add("static/"+key, m, err)

				em, err := RunExtended(cfg, 0.5)
				add("extended/"+key, em, err)

				cm, err := RunChurn(ChurnConfig{Config: cfg, OffProb: 0.1, OnProb: 0.3})
				add("churn/"+key, cm, err)

				dist := cfg
				dist.MaxIntervals = 30
				dm, err := RunDistributed(dist)
				add("distributed/"+key, dm, err)

				if n <= 20 {
					faulty := cfg
					faulty.Drop = 0.1
					faulty.Crashes = 2
					faulty.MaxIntervals = 6
					fm, err := RunDistributed(faulty)
					add("faulty/"+key, fm, err)
				}
			}
		}
	}
	walk := PaperConfig(15, cds.EL2, energy.Linear{}, 21)
	walk.Mobility = &mobility.RandomWalk{MinSpeed: 1, MaxSpeed: 5, Bound: mobility.Reflect}
	m, err := Run(walk)
	add("randomwalk", m, err)

	ts, err := RunTrials(PaperConfig(20, cds.EL1, energy.Linear{}, 99), 6)
	add("trials", ts, err)
	return lines
}

// TestGoldenResults pins every loop's results to values recorded before
// the loops shared one stepper. Regenerate with `go test -run
// TestGoldenResults -update` only for a change meant to alter results.
func TestGoldenResults(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden.txt"), goldenLines())
}

func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	if *update {
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
