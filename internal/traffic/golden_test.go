package traffic

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacds/internal/cds"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// TestGoldenResults pins Run's full result struct, over every policy and
// three sizes, to values recorded before the loop moved onto the
// internal/sim stepper. At the paper's costs no host dies within 300
// intervals, so the heavy variants charge 20 times as much per hop to
// reach the first death and the alive-only topology after it. Floats
// print in their shortest round-trip form, so equal lines mean
// bit-identical results. Regenerate with `go test -run TestGoldenResults
// -update` only for a change meant to alter results.
func TestGoldenResults(t *testing.T) {
	var lines []string
	for _, n := range []int{8, 20, 45} {
		for pi, p := range cds.Policies {
			for _, variant := range []string{"plain", "heavy", "heavy+continue+ea"} {
				cfg := PaperConfig(n, p, uint64(1000*n+10*pi))
				cfg.MaxIntervals = 300
				if variant != "plain" {
					cfg.TxCost, cfg.RxCost = 1, 0.4
				}
				if variant == "heavy+continue+ea" {
					cfg.ContinueAfterDeath = true
					cfg.EnergyAwareRouting = true
				}
				m, err := Run(cfg)
				line := fmt.Sprintf("%s/n=%d/%v %+v", variant, n, p, m)
				if err != nil {
					line = fmt.Sprintf("%s/n=%d/%v error: %v", variant, n, p, err)
				}
				lines = append(lines, line)
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d result lines, golden file has %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, lines[i], wantLines[i])
		}
	}
}
