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
// makes about 45 allocations for the compute body. maxBuilt pins the
// same read and decode followed by GraphSpec.build, and for compute by
// cacheKey too, which is all a handler runs before its first span: the
// graph, its row headers, offsets, arena and bitset view, and the key
// string, again nothing per edge.
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
		name          string
		req           any
		decode        func(*http.Request) (GraphSpec, error)
		max, maxBuilt float64
		key           bool
	}{
		{"compute N=150 EL1", ComputeRequest{Graph: spec, Policy: "EL1", Energy: energy}, func(r *http.Request) (GraphSpec, error) {
			var req ComputeRequest
			err := decodeFast(r, &req, scanCompute)
			return req.Graph, err
		}, 4, 10, true},
		{"verify N=150", VerifyRequest{Graph: spec, Gateways: boolsToIDs(res.Gateway)}, func(r *http.Request) (GraphSpec, error) {
			var req VerifyRequest
			err := decodeFast(r, &req, scanVerify)
			return req.Graph, err
		}, 3, 8, false},
		{"session create N=150 EL2", SessionCreateRequest{Graph: spec, Policy: "EL2", Energy: energy}, func(r *http.Request) (GraphSpec, error) {
			var req SessionCreateRequest
			err := decodeFast(r, &req, scanSessionCreate)
			return req.Graph, err
		}, 4, 9, false},
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
			if _, err := tc.decode(r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: decoding a %d-byte body allocates %v times, want <= %v", tc.name, len(body), allocs, tc.max)
		}
		built := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			spec, err := tc.decode(r)
			if err != nil {
				t.Fatal(err)
			}
			g, err := spec.build(0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.key {
				cacheKey(g, cds.EL1, energy, 1)
			}
		})
		if built > tc.maxBuilt {
			t.Errorf("%s: decoding a %d-byte body and building its graph allocates %v times, want <= %v", tc.name, len(body), built, tc.maxBuilt)
		}
	}
}

// TestDecodeSessionChangesAllocations pins the same for a canonical delta
// batch, a mobility batch plus a full energy refresh: the request value,
// its change and energy slices, and nothing per change or per number.
// encoding/json makes about 30 allocations for it.
func TestDecodeSessionChangesAllocations(t *testing.T) {
	req := SessionChangesRequest{Energy: make([]float64, 300)}
	for i := range req.Energy {
		req.Energy[i] = float64(i%100 + 1)
	}
	for i := 0; i < 40; i++ {
		req.Changes = append(req.Changes, SessionEdgeChange{A: i, B: 3*i + 1, Up: i%3 == 0})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := &http.Request{Body: io.NopCloser(rd)}
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		var got SessionChangesRequest
		if err := decodeFast(r, &got, scanSessionChanges); err != nil || len(got.Changes) != 40 {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding a %d-byte delta batch allocates %v times, want <= 3", len(body), allocs)
	}
}
