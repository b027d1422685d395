package server

import (
	"encoding/json"
	"fmt"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/graph"
)

// BenchmarkRequestPath times the stages a canonical compute body passes
// through: the scan and the cache key, which the handler runs before
// its first span opens, and the graph build into a warm pooled builder,
// which a cache miss's job runs on the worker. perfbench's serve rows
// replay encoding/json, graph.FromEdgeFunc over [][2]int and
// graph.Digest of the built graph instead, so these are the figures for
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
		edges, err := req.Graph.edgeList(0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/scan", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				req, _ := scanCompute(body)
				req.Graph.release()
			}
		})
		b.Run(fmt.Sprintf("N=%d/key", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cacheKey(edges.digest(n), n, cds.EL1, energy, 1)
			}
		})
		b.Run(fmt.Sprintf("N=%d/build", n), func(b *testing.B) {
			var bd graph.Builder
			b.ReportAllocs()
			for b.Loop() {
				bd.Build(n, edges.flat)
			}
		})
	}
}

// BenchmarkSessionChangesDecode times the scan and encoding/json on the
// two delta batches perfbench's sessions workload sends most at its
// largest size, N=2859 at paper density: a 1% mobility batch of 200 link
// events, and the same batch with a full energy refresh of integer
// levels.
func BenchmarkSessionChangesDecode(b *testing.B) {
	const n = 2859
	var mobility SessionChangesRequest
	for i := 0; i < 200; i++ {
		mobility.Changes = append(mobility.Changes, SessionEdgeChange{A: (i * 37) % n, B: (i*91 + 5) % n, Up: i%2 == 0})
	}
	refresh := SessionChangesRequest{Changes: mobility.Changes, Energy: make([]float64, n)}
	for i := range refresh.Energy {
		refresh.Energy[i] = float64((i*7)%100 + 1)
	}
	for _, tc := range []struct {
		name string
		req  SessionChangesRequest
	}{{"mobility", mobility}, {"refresh", refresh}} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := scanSessionChanges(body); !ok {
			b.Fatal("scanSessionChanges declines a json.Marshal body")
		}
		b.Run(tc.name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				scanSessionChanges(body)
			}
		})
		b.Run(tc.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var req SessionChangesRequest
				if err := decodeBody(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
