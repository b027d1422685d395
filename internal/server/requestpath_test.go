package server

import (
	"encoding/json"
	"fmt"
	"testing"

	"pacds/internal/cds"
)

// BenchmarkRequestPath times the stages a canonical compute body passes
// through before its first span opens: the scan, the graph build and the
// cache key. perfbench's serve rows replay encoding/json and
// graph.FromEdgeFunc over [][2]int instead, so these are the figures for
// the path cdsd runs. The body is an EL1 request with integer energies,
// the shape half of serve's computes have.
func BenchmarkRequestPath(b *testing.B) {
	for _, n := range []int{89, 400} {
		inst := randomInstance(b, n, 1)
		energy := make([]float64, n)
		for i := range energy {
			energy[i] = float64(10 * (i%10 + 1))
		}
		body, err := json.Marshal(ComputeRequest{Graph: specFor(inst.Graph), Policy: "EL1", Energy: energy})
		if err != nil {
			b.Fatal(err)
		}
		req, ok := scanCompute(body)
		if !ok {
			b.Fatal("scanCompute declines a json.Marshal body")
		}
		g, err := req.Graph.build(0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/scan", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				scanCompute(body)
			}
		})
		b.Run(fmt.Sprintf("N=%d/build", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				req.Graph.build(0)
			}
		})
		b.Run(fmt.Sprintf("N=%d/key", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cacheKey(g, cds.EL1, energy, 1)
			}
		})
	}
}
