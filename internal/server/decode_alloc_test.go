//go:build !race

// The race detector makes sync.Pool drop a random share of the buffers
// put back, so the pooled body read allocates at random under -race.

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pacds/internal/cds"
	"pacds/internal/graph"
)

// TestDecodeAllocationContracts pins what reading and decoding a
// canonical body costs once the body and edge pools are warm: the
// request value (the fallback would decode into it through an
// interface), its non-edge slices and the policy string, nothing per
// edge or per number. encoding/json makes about 45 allocations for the
// compute body. maxHandler pins all a handler runs before it submits a
// job or answers from the cache: the same decode, edgeList and, for
// compute, the digest and the cache key string, then the edge buffer
// put back as a cache hit does. The job's build of the graph into a warm
// pooled graph.Builder allocates nothing.
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
		name            string
		req             any
		decode          func(*http.Request) (GraphSpec, error)
		max, maxHandler float64
		key             bool
	}{
		{"compute N=150 EL1", ComputeRequest{Graph: spec, Policy: "EL1", Energy: energy}, func(r *http.Request) (GraphSpec, error) {
			var req ComputeRequest
			err := decodeFast(r, &req, scanCompute)
			return req.Graph, err
		}, 3, 4, true},
		{"verify N=150", VerifyRequest{Graph: spec, Gateways: boolsToIDs(res.Gateway)}, func(r *http.Request) (GraphSpec, error) {
			var req VerifyRequest
			err := decodeFast(r, &req, scanVerify)
			return req.Graph, err
		}, 2, 2, false},
		{"session create N=150 EL2", SessionCreateRequest{Graph: spec, Policy: "EL2", Energy: energy}, func(r *http.Request) (GraphSpec, error) {
			var req SessionCreateRequest
			err := decodeFast(r, &req, scanSessionCreate)
			return req.Graph, err
		}, 3, 3, false},
	}
	var b graph.Builder
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		r := &http.Request{Body: io.NopCloser(rd)}
		allocs := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			spec, err := tc.decode(r)
			if err != nil {
				t.Fatal(err)
			}
			spec.release()
		})
		if allocs > tc.max {
			t.Errorf("%s: decoding a %d-byte body allocates %v times, want <= %v", tc.name, len(body), allocs, tc.max)
		}
		handler := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			spec, err := tc.decode(r)
			if err != nil {
				t.Fatal(err)
			}
			edges, err := spec.edgeList(0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.key {
				cacheKey(edges.digest(spec.Nodes), spec.Nodes, cds.EL1, energy, 1)
			}
			edges.put()
		})
		if handler > tc.maxHandler {
			t.Errorf("%s: a handler's work on a %d-byte body allocates %v times, want <= %v", tc.name, len(body), handler, tc.maxHandler)
		}
		rd.Reset(body)
		decoded, err := tc.decode(r)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := decoded.edgeList(0)
		if err != nil {
			t.Fatal(err)
		}
		b.Build(150, edges.flat)
		if built := testing.AllocsPerRun(50, func() { b.Build(150, edges.flat) }); built != 0 {
			t.Errorf("%s: building the graph in a warm builder allocates %v times, want 0", tc.name, built)
		}
		edges.put()
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

// discardResponse is an http.ResponseWriter that keeps only the status,
// so that allocations counted around ServeHTTP are the server's own.
type discardResponse struct {
	h      http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }

// TestComputeAllocations pins what one POST /v1/compute allocates in all,
// handler and worker, once the pools are warm: a cache hit, which builds
// no graph, and a miss (the cache disabled), whose job builds the graph
// in a pooled builder and whose only per-size allocations are the
// response's id lists.
func TestComputeAllocations(t *testing.T) {
	inst := randomInstance(t, 150, 1)
	energy := make([]float64, 150)
	for i := range energy {
		energy[i] = float64(10 * (i%10 + 1))
	}
	body, err := json.Marshal(ComputeRequest{Graph: specFor(inst.Graph), Policy: "EL1", Energy: energy})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		max  float64
	}{
		{"hit", Config{}, 13},
		{"miss", Config{CacheSize: -1}, 23},
	} {
		s := New(tc.cfg)
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/v1/compute", nil)
		rbody := io.NopCloser(rd)
		w := &discardResponse{h: http.Header{}}
		serve := func() {
			rd.Reset(body)
			r.Body = rbody
			s.Handler().ServeHTTP(w, r)
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, w.status)
			}
		}
		serve()
		got := testing.AllocsPerRun(50, serve)
		s.Close()
		if got > tc.max {
			t.Errorf("a warm compute %s allocates %v times, want <= %v", tc.name, got, tc.max)
		}
	}
}
