package udg

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacds/internal/graph"
	"pacds/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/quasi_golden.txt from the current code")

// quasiGoldenLines builds a seeded quasi-UDG for every size and link
// configuration of the table and prints one record per build: the size,
// the configuration, the edge count, graph.Digest of the graph and the
// RNG's next Uint64 after the build. The last value pins how many draws
// the build consumed, which RandomQuasiConnected relies on, because it
// reuses one stream across its attempts.
func quasiGoldenLines() []string {
	var lines []string
	for _, n := range []int{0, 1, 2, 50, 100, 300} {
		paper := PaperQuasiConfig(n)
		never, always, sharp := paper, paper, paper
		never.PZone = 0
		always.PZone = 1
		sharp.RMin = sharp.RMax
		for ci, c := range []QuasiConfig{paper, never, always, sharp} {
			rng := xrand.New(xrand.Mix(uint64(n), uint64(ci)))
			pos := RandomPositions(Config{N: c.N, Field: c.Field, Radius: c.RMax}, rng)
			g := BuildQuasi(pos, c, rng)
			lines = append(lines, fmt.Sprintf("n=%d cfg=%+v edges=%d digest=%016x next=%016x",
				n, c, g.NumEdges(), graph.Digest(g), rng.Uint64()))
		}
	}
	return lines
}

// TestQuasiGolden pins BuildQuasi's graphs and RNG consumption to values
// recorded before the unit-disk builders shared one edge-list pass.
// Regenerate with `go test ./internal/udg/ -run TestQuasiGolden -update`
// only for a change meant to alter them.
func TestQuasiGolden(t *testing.T) {
	path := filepath.Join("testdata", "quasi_golden.txt")
	lines := quasiGoldenLines()
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
		t.Fatalf("%d records, golden file has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i+1, lines[i], want[i])
		}
	}
}
