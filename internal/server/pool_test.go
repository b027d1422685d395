package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"pacds/internal/cds"
)

// edgeForms returns spec's edge list in the three orders a client may
// send one graph in: canonical (json.Marshal of Graph.Edges), reversed
// with every pair swapped, and canonical with a third of it repeated.
func edgeForms(spec GraphSpec) []GraphSpec {
	reversed := GraphSpec{Nodes: spec.Nodes}
	for i := len(spec.Edges) - 1; i >= 0; i-- {
		e := spec.Edges[i]
		reversed.Edges = append(reversed.Edges, [2]int{e[1], e[0]})
	}
	repeated := GraphSpec{Nodes: spec.Nodes, Edges: slices.Concat(spec.Edges, spec.Edges[:len(spec.Edges)/3])}
	return []GraphSpec{spec, reversed, repeated}
}

// TestEdgeOrderSharesCacheEntry sends one graph in canonical order,
// reversed and with repeats, each as the canonical body the scanner
// reads and behind a leading space that sends it through encoding/json:
// the cache key is the digest of the canonical list, so the first body
// misses and all the others hit its one entry.
func TestEdgeOrderSharesCacheEntry(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	inst := randomInstance(t, 60, 3)
	res, err := cds.Compute(inst.Graph, cds.ND, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := boolsToIDs(res.Gateway)
	sent := 0
	for _, spec := range edgeForms(specFor(inst.Graph)) {
		body, err := json.Marshal(ComputeRequest{Graph: spec, Policy: "ND"})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{body, append([]byte(" "), body...)} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compute", bytes.NewReader(b)))
			var resp ComputeResponse
			if rec.Code != http.StatusOK {
				t.Fatalf("body %d: status %d: %s", sent, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Cached != (sent > 0) {
				t.Errorf("body %d: cached = %v", sent, resp.Cached)
			}
			if !slices.Equal(resp.Gateways, want) {
				t.Errorf("body %d: gateways %v, want %v", sent, resp.Gateways, want)
			}
			sent++
		}
	}
	if n := s.cache.len(); n != 1 {
		t.Fatalf("%d cache entries for one graph, want 1", n)
	}
}

// TestPooledStorageUnderOverload drives computes and verifies through
// every path that decides who puts an edge buffer back: coalesced
// requests, shed requests, requests whose deadline passes while their
// job is queued (the job never runs) or running (it runs after the
// handler has answered 504), and plain misses and hits. Every answer
// must be the library's, and afterwards every cached entry too: a
// buffer or builder reused while a job still read it would compute, and
// cache, another graph's backbone. Under -race the detector reports such
// a reuse directly.
func TestPooledStorageUnderOverload(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 2, RequestTimeout: 40 * time.Millisecond, TestDelay: 25 * time.Millisecond})
	type instance struct {
		forms []GraphSpec
		want  []int
	}
	var insts []instance
	for i := 0; i < 6; i++ {
		inst := randomInstance(t, 40+12*i, uint64(20+i))
		res, err := cds.Compute(inst.Graph, cds.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{edgeForms(specFor(inst.Graph)), boolsToIDs(res.Gateway)})
	}
	var mu sync.Mutex
	outcomes := map[string]int{}
	// call sends graph i in form f, as a compute unless verify is set,
	// and checks a 200 against the library.
	call := func(i, f int, verify bool) {
		in := insts[i]
		var err error
		if verify {
			var resp *VerifyResponse
			resp, err = c.Verify(context.Background(), VerifyRequest{Graph: in.forms[f], Gateways: in.want})
			if err == nil && !resp.Valid {
				t.Errorf("graph %d form %d: the library's backbone verifies invalid: %s", i, f, resp.Reason)
			}
		} else {
			var resp *ComputeResponse
			resp, err = c.Compute(context.Background(), ComputeRequest{Graph: in.forms[f], Policy: "ID"})
			if err == nil && !slices.Equal(resp.Gateways, in.want) {
				t.Errorf("graph %d form %d: gateways %v, want %v", i, f, resp.Gateways, in.want)
			}
		}
		outcome := "ok"
		var ae *APIError
		switch {
		case err == nil:
		case errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable:
			outcome = "shed"
		case errors.As(err, &ae) && ae.Status == http.StatusGatewayTimeout:
			outcome = "timeout"
		default:
			t.Errorf("graph %d form %d: %v", i, f, err)
		}
		mu.Lock()
		outcomes[outcome]++
		mu.Unlock()
	}
	burst := func(k int, req func(j int)) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for j := 0; j < k; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				<-start
				req(j)
			}(j)
		}
		close(start)
		wg.Wait()
	}
	// One graph from four callers at once: one job, three coalesced.
	burst(4, func(j int) { call(0, 0, false) })
	// Twelve distinct requests for one worker and two queue slots: one
	// runs, two queue (the second of them past its deadline), nine shed.
	burst(12, func(j int) { call(1+j%5, j/5, j%2 == 1) })
	// A mixed storm over every graph, form and endpoint.
	burst(8, func(j int) {
		for k := 0; k < 10; k++ {
			call((j+k)%6, (j*k)%3, (j+k)%4 == 3)
		}
	})
	time.Sleep(60 * time.Millisecond) // let abandoned jobs finish
	for i := range insts {
		for f := range insts[i].forms {
			call(i, f, false)
		}
	}
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coalesced := metricValue(t, text, "cdsd_coalesced_total")
	t.Logf("outcomes %v, coalesced %v, cache entries %d", outcomes, coalesced, s.cache.len())
	for _, o := range []string{"ok", "shed", "timeout"} {
		if outcomes[o] == 0 {
			t.Errorf("no request ended %s", o)
		}
	}
	if coalesced == 0 {
		t.Error("no request was coalesced")
	}
}
