package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"pacds/internal/cds"
)

// computeRequestSeeds seed FuzzComputeRequest and FuzzFastDecode.
var computeRequestSeeds = []string{
	// Well-formed request.
	`{"graph":{"nodes":4,"edges":[[0,1],[1,2],[2,3]]},"policy":"ND"}`,
	// Energy-aware policy with levels.
	`{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"EL1","energy":[10,20,30]}`,
	// NaN/Inf energies are not valid JSON; both spellings must 400.
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[NaN,1]}`,
	`{"graph":{"nodes":2,"edges":[[0,1]]},"policy":"EL1","energy":[1e999,1]}`,
	// Negative and oversized node counts.
	`{"graph":{"nodes":-5,"edges":[]},"policy":"ID"}`,
	`{"graph":{"nodes":999999999,"edges":[]},"policy":"ID"}`,
	// Self loops, out-of-range endpoints, wrong arity.
	`{"graph":{"nodes":3,"edges":[[1,1]]},"policy":"ID"}`,
	`{"graph":{"nodes":3,"edges":[[0,7]]},"policy":"ID"}`,
	`{"graph":{"nodes":3,"edges":[[0,1,2]]},"policy":"ID"}`,
	// Truncated body, wrong types, unknown fields, empty body.
	`{"graph":{"nodes":4,"edges":[[0,1`,
	`{"graph":"not a graph","policy":"ND"}`,
	`{"graph":{"nodes":2,"edges":[]},"policy":"ND","bogus":1}`,
	``,
	// Missing energy for an energy-aware policy.
	`{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"EL2"}`,
	// Fault scenarios: invalid drop rate, out-of-range crash node.
	`{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"ID","faults":{"drop":2.5,"seed":1}}`,
	`{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"ID","faults":{"drop":0.1,"seed":1,"crashes":[{"node":99,"at_round":1}]}}`,
	// A large-ish edge list (the fuzzer will grow it further).
	`{"graph":{"nodes":40,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[0,39]]},"policy":"ND"}`,
	// Trailing bytes after the request object.
	`{"graph":{"nodes":3,"edges":[[0,1],[1,2]]},"policy":"ID"}x`,
}

// FuzzComputeRequest feeds arbitrary (and deliberately hostile) bodies
// into the /v1/compute decoder and pipeline. The invariant: the endpoint
// answers every byte sequence with 2xx or 4xx — malformed, truncated, or
// semantically invalid input must never panic the server or surface as a
// 5xx. When the request is well-formed enough to succeed, the returned
// gateway set must be a valid CDS of the requested topology.
func FuzzComputeRequest(f *testing.F) {
	for _, s := range computeRequestSeeds {
		f.Add([]byte(s))
	}

	// Small MaxNodes bounds per-input work; a generous queue means the
	// sequential fuzz driver never trips load shedding.
	srv := New(Config{Workers: 2, QueueDepth: 256, MaxNodes: 256, RequestTimeout: 5 * time.Second})
	defer srv.Close()
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/compute", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)

		if rr.Code >= 500 {
			t.Fatalf("hostile body produced HTTP %d (want 2xx/4xx)\nbody: %q\nresponse: %s",
				rr.Code, body, rr.Body.Bytes())
		}
		if rr.Code != 200 {
			// Errors must still be well-formed JSON envelopes.
			var er errorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("HTTP %d with malformed error body %q", rr.Code, rr.Body.Bytes())
			}
			return
		}

		// Success: the reported gateways must be a CDS of the topology we
		// asked about (skipping fault runs, where the invariant is on the
		// surviving subgraph, and disconnected graphs, which have no CDS).
		var cr ComputeRequest
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatalf("200 for a body the decoder rejects: %q", body)
		}
		var resp ComputeResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with undecodable response %q", rr.Body.Bytes())
		}
		g, err := cr.Graph.build(256)
		if err != nil {
			t.Fatalf("200 for an unbuildable graph: %v", err)
		}
		if cr.Faults != nil || !g.IsConnected() || g.NumNodes() == 0 {
			return
		}
		gateway, err := idsToBools(g.NumNodes(), resp.Gateways)
		if err != nil {
			t.Fatalf("gateway ids out of range: %v", err)
		}
		if err := cds.VerifyCDS(g, gateway); err != nil {
			t.Fatalf("200 response is not a CDS: %v\nbody: %q", err, body)
		}
	})
}
