//go:build !race

// The race detector makes sync.Pool drop a random share of the buffers
// put back, so the pooled body read allocates at random under -race.

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"pacds/internal/cds"
)

// TestDecodeAllocationContracts pins what reading and decoding a
// canonical body costs once the body pool is warm: the request value
// (the fallback would decode into it through an interface), its slices
// and the policy string, nothing per edge or per number. encoding/json
// makes about 45 allocations for the compute body.
func TestDecodeAllocationContracts(t *testing.T) {
	inst := randomInstance(t, 150, 1)
	spec := specFor(inst.Graph)
	energy := make([]float64, 150)
	for i := range energy {
		energy[i] = float64(10 * (i%10 + 1))
	}
	res, err := cds.Compute(inst.Graph, cds.ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		req    any
		decode func(*http.Request) error
		max    float64
	}{
		{"compute N=150 EL1", ComputeRequest{Graph: spec, Policy: "EL1", Energy: energy}, func(r *http.Request) error {
			var req ComputeRequest
			return decodeFast(r, &req, scanCompute)
		}, 4},
		{"verify N=150", VerifyRequest{Graph: spec, Gateways: boolsToIDs(res.Gateway)}, func(r *http.Request) error {
			var req VerifyRequest
			return decodeFast(r, &req, scanVerify)
		}, 3},
		{"session create N=150 EL2", SessionCreateRequest{Graph: spec, Policy: "EL2", Energy: energy}, func(r *http.Request) error {
			var req SessionCreateRequest
			return decodeFast(r, &req, scanSessionCreate)
		}, 4},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		r := &http.Request{Body: io.NopCloser(rd)}
		allocs := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			if err := tc.decode(r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: decoding a %d-byte body allocates %v times, want <= %v", tc.name, len(body), allocs, tc.max)
		}
	}
}
