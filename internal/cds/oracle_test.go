package cds

import (
	"testing"

	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// Reference oracles: implementations kept only to check and measure the
// production paths against.

// ApplyRulesFixpointRescan is the reference fixpoint: re-run the full rule
// pass over all nodes until a pass removes nothing. It is the
// differential-testing oracle for ApplyRulesFixpoint and the baseline
// BenchmarkApplyRulesFixpoint measures against.
//
// Returns the gateway set and the number of passes executed (at least 2 —
// the final pass removes nothing and exists only to confirm stability,
// which is exactly the work the monotonicity theorem proves unnecessary).
func ApplyRulesFixpointRescan(g *graph.Graph, p Policy, marked []bool, energy []float64) ([]bool, int, error) {
	out, err := ApplyRules(g, p, marked, energy)
	if err != nil {
		return nil, 0, err
	}
	passes := 1
	for {
		next, err := ApplyRules(g, p, out, energy)
		if err != nil {
			return nil, 0, err
		}
		passes++
		if CountGateways(next) == CountGateways(out) {
			return next, passes, nil
		}
		out = next
	}
}

// ApplyRulesInto is ApplyRules writing into a caller-provided slice — the
// sequential analogue of ApplyRulesParallelInto.
func ApplyRulesInto(g *graph.Graph, p Policy, marked []bool, energy []float64, dst []bool) error {
	return ApplyRulesParallelInto(g, p, marked, energy, 1, dst)
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkApplyRulesFixpoint/*/rescan measures the full-rescan reference
// on the instances of the root package's BenchmarkApplyRulesFixpoint,
// whose single-pass rows it is the baseline for.
func BenchmarkApplyRulesFixpoint(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  udg.Config
	}{
		{"paper-n100", udg.PaperConfig(100)},
		{"sparse-n300", udg.Config{N: 300, Field: geom.Square(300), Radius: 35}},
	} {
		inst, err := udg.RandomConnected(tc.cfg, xrand.New(11), 2000)
		if err != nil {
			b.Fatal(err)
		}
		marked := Mark(inst.Graph)
		b.Run(tc.name+"/rescan", func(b *testing.B) {
			b.ReportAllocs()
			var passes int
			for i := 0; i < b.N; i++ {
				_, p, err := ApplyRulesFixpointRescan(inst.Graph, ND, marked, nil)
				if err != nil {
					b.Fatal(err)
				}
				passes = p
			}
			b.ReportMetric(float64(passes), "passes")
		})
	}
}
