package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// newTestServer starts a Server behind an httptest listener and returns a
// typed client. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, NewClient(hs.URL, hs.Client())
}

// specFor converts a graph into its wire form.
func specFor(g *graph.Graph) GraphSpec {
	spec := GraphSpec{Nodes: g.NumNodes()}
	g.Edges(func(u, v graph.NodeID) {
		spec.Edges = append(spec.Edges, [2]int{int(u), int(v)})
	})
	return spec
}

// build returns the graph a handler's job builds for spec, in storage of
// its own, or the error edgeList reports for it. It puts back no buffer,
// so a test may build one scanned spec more than once.
func (s GraphSpec) build(maxNodes int) (*graph.Graph, error) {
	buf, err := s.edgeList(maxNodes)
	if err != nil {
		return nil, err
	}
	return graph.FromFlatEdges(s.Nodes, buf.flat), nil
}

// randomInstance samples a connected paper-parameter network.
func randomInstance(t testing.TB, n int, seed uint64) *udg.Instance {
	t.Helper()
	inst, err := udg.RandomConnected(udg.PaperConfig(n), xrand.New(seed), 2000)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// metricValue extracts a metric sample from Prometheus text output.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func TestComputeMatchesLibrary(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for seed := uint64(1); seed <= 3; seed++ {
		inst := randomInstance(t, 40, seed)
		el := make([]float64, 40)
		rng := xrand.New(seed + 100)
		for i := range el {
			el[i] = float64(rng.IntRange(1, 10)) * 10
		}
		for _, p := range cds.Policies {
			var energy []float64
			if p.NeedsEnergy() {
				energy = el
			}
			resp, err := c.Compute(context.Background(), ComputeRequest{
				Graph: specFor(inst.Graph), Policy: p.String(), Energy: energy,
			})
			if err != nil {
				t.Fatalf("seed %d policy %v: %v", seed, p, err)
			}
			want, err := cds.Compute(inst.Graph, p, energy)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := boolsToIDs(want.Gateway)
			if len(resp.Gateways) != len(wantIDs) {
				t.Fatalf("seed %d policy %v: got %d gateways, want %d", seed, p, len(resp.Gateways), len(wantIDs))
			}
			for i := range wantIDs {
				if resp.Gateways[i] != wantIDs[i] {
					t.Fatalf("seed %d policy %v: gateway mismatch at %d: %v vs %v",
						seed, p, i, resp.Gateways, wantIDs)
				}
			}
			if resp.NumGateways != want.NumGateways() {
				t.Fatalf("num_gateways = %d, want %d", resp.NumGateways, want.NumGateways())
			}
		}
	}
}

func TestComputeCacheHitEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})
	inst := randomInstance(t, 30, 7)
	req := ComputeRequest{Graph: specFor(inst.Graph), Policy: "ND"}

	first, err := c.Compute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	second, err := c.Compute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated request not served from cache")
	}
	if len(second.Gateways) != len(first.Gateways) {
		t.Fatalf("cached response diverged: %v vs %v", second.Gateways, first.Gateways)
	}

	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, text, "cdsd_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %v, want 1", hits)
	}
	if misses := metricValue(t, text, "cdsd_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %v, want 1", misses)
	}
	if entries := metricValue(t, text, "cdsd_cache_entries"); entries != 1 {
		t.Fatalf("cache entries = %v, want 1", entries)
	}
	if reqs := metricValue(t, text, `cdsd_requests_total{endpoint="compute"}`); reqs != 2 {
		t.Fatalf("compute requests = %v, want 2", reqs)
	}
}

func TestEnergyQuantizationSharesCacheEntries(t *testing.T) {
	_, c := newTestServer(t, Config{EnergyQuantum: 1})
	inst := randomInstance(t, 25, 9)
	spec := specFor(inst.Graph)

	energyA := make([]float64, 25)
	energyB := make([]float64, 25)
	energyC := make([]float64, 25)
	for i := range energyA {
		energyA[i] = 50.2
		energyB[i] = 50.4 // same quantum bucket as A
		energyC[i] = 90   // different bucket
	}
	if _, err := c.Compute(context.Background(), ComputeRequest{Graph: spec, Policy: "EL1", Energy: energyA}); err != nil {
		t.Fatal(err)
	}
	b, err := c.Compute(context.Background(), ComputeRequest{Graph: spec, Policy: "EL1", Energy: energyB})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached {
		t.Fatal("energy within the same quantum bucket missed the cache")
	}
	cResp, err := c.Compute(context.Background(), ComputeRequest{Graph: spec, Policy: "EL1", Energy: energyC})
	if err != nil {
		t.Fatal(err)
	}
	if cResp.Cached {
		t.Fatal("different energy tier incorrectly hit the cache")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})
	instances := make([]*udg.Instance, 5)
	for i := range instances {
		instances[i] = randomInstance(t, 30, uint64(i+1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				inst := instances[(w+i)%len(instances)]
				p := cds.Policies[(w+i)%len(cds.Policies)]
				var energy []float64
				if p.NeedsEnergy() {
					energy = make([]float64, 30)
					for j := range energy {
						energy[j] = float64(10 + (w+i+j)%90)
					}
				}
				resp, err := c.Compute(context.Background(), ComputeRequest{
					Graph: specFor(inst.Graph), Policy: p.String(), Energy: energy,
				})
				if err != nil {
					errs <- err
					return
				}
				want, err := cds.Compute(inst.Graph, p, energy)
				if err != nil {
					errs <- err
					return
				}
				if resp.NumGateways != want.NumGateways() {
					errs <- &APIError{Status: 0, Message: "gateway count diverged under concurrency"}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCoalescingOfIdenticalInflightRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, TestDelay: 300 * time.Millisecond})
	inst := randomInstance(t, 20, 11)
	req := ComputeRequest{Graph: specFor(inst.Graph), Policy: "ID"}

	const clients = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	responses := make([]*ComputeResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i], errs[i] = c.Compute(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	coalesced, cached := 0, 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if responses[i].Coalesced {
			coalesced++
		}
		if responses[i].Cached {
			cached++
		}
		if responses[i].NumGateways != responses[0].NumGateways {
			t.Fatal("coalesced responses diverged")
		}
	}
	if coalesced+cached < 1 {
		t.Fatalf("no coalescing or caching across %d identical concurrent requests", clients)
	}
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "cdsd_coalesced_total"); int(got) != coalesced {
		t.Fatalf("coalesced counter = %v, responses said %d", got, coalesced)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 2, TestDelay: 300 * time.Millisecond})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL, hs.Client())

	inst := randomInstance(t, 20, 13)
	req := ComputeRequest{Graph: specFor(inst.Graph), Policy: "ND"}

	// Hold one request in flight.
	inflightDone := make(chan error, 1)
	inflightResp := make(chan *ComputeResponse, 1)
	go func() {
		resp, err := c.Compute(context.Background(), req)
		inflightResp <- resp
		inflightDone <- err
	}()
	// Wait until the request is registered in flight.
	deadline := time.Now().Add(2 * time.Second)
	for s.gInflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Draining flips synchronously inside Shutdown before the wait; give
	// it a moment, then new requests must be refused with 503.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Compute(context.Background(), req); err == nil {
		t.Fatal("new request accepted while draining")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining refusal = %v, want 503", err)
	}
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("healthz reported healthy while draining")
	}

	// The in-flight request completes normally.
	select {
	case err := <-inflightDone:
		if err != nil {
			t.Fatalf("in-flight request failed during drain: %v", err)
		}
		if resp := <-inflightResp; resp.NumGateways == 0 {
			t.Fatal("in-flight request returned empty result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	// And Shutdown returns without hitting the drain deadline.
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("graceful shutdown reported %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}

func TestShutdownDeadlineExceeded(t *testing.T) {
	s := New(Config{Workers: 1, TestDelay: 400 * time.Millisecond})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL, hs.Client())

	inst := randomInstance(t, 15, 17)
	go c.Compute(context.Background(), ComputeRequest{Graph: specFor(inst.Graph), Policy: "ID"})
	deadline := time.Now().Add(2 * time.Second)
	for s.gInflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown beat a 20ms deadline against a 400ms request")
	}
}

func TestVerifyEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	// 0-1-2-3 path: {1, 2} is a CDS, {1} is not dominating.
	spec := GraphSpec{Nodes: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}
	ok, err := c.Verify(context.Background(), VerifyRequest{Graph: spec, Gateways: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Valid || ok.NumGateways != 2 {
		t.Fatalf("verify = %+v", ok)
	}
	bad, err := c.Verify(context.Background(), VerifyRequest{Graph: spec, Gateways: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Valid || bad.Reason == "" {
		t.Fatalf("non-dominating set accepted: %+v", bad)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	one, err := c.Simulate(context.Background(), SimulateRequest{N: 15, Policy: "ND", Drain: "linear", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if one.Lifetime <= 0 || one.MeanGateways <= 0 {
		t.Fatalf("simulate = %+v", one)
	}
	many, err := c.Simulate(context.Background(), SimulateRequest{N: 12, Policy: "EL1", Drain: "const-pergw", Seed: 5, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if many.Trials != 3 || many.LifetimeMin > many.Lifetime || many.Lifetime > many.LifetimeMax {
		t.Fatalf("trials = %+v", many)
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	infos, err := c.Policies(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(cds.Policies) {
		t.Fatalf("got %d policies", len(infos))
	}
	byName := map[string]PolicyInfo{}
	for _, pi := range infos {
		byName[pi.Name] = pi
	}
	if !byName["EL1"].NeedsEnergy || byName["ND"].NeedsEnergy {
		t.Fatalf("needs_energy wrong: %+v", infos)
	}
}

func TestFaultScenarioCompute(t *testing.T) {
	_, c := newTestServer(t, Config{})
	inst := randomInstance(t, 20, 3)
	resp, err := c.Compute(context.Background(), ComputeRequest{
		Graph:  specFor(inst.Graph),
		Policy: "ND",
		Faults: &FaultSpec{Drop: 0.1, Seed: 5, Crashes: []CrashSpec{{Node: 2, AtRound: 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, 20)
	for _, v := range resp.Alive {
		alive[v] = true
	}
	if alive[2] {
		t.Fatal("crashed host reported alive")
	}
	gateway := make([]bool, 20)
	for _, v := range resp.Gateways {
		gateway[v] = true
	}
	if err := cds.VerifySurvivorCDS(inst.Graph, alive, gateway); err != nil {
		t.Fatalf("surviving set is not a CDS of the surviving subgraph: %v", err)
	}
	if resp.Cached {
		t.Fatal("fault run must bypass the cache")
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{MaxNodes: 100})
	ctx := context.Background()
	cases := []struct {
		name string
		do   func() error
	}{
		{"unknown policy", func() error {
			_, err := c.Compute(ctx, ComputeRequest{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 1}}}, Policy: "bogus"})
			return err
		}},
		{"edge out of range", func() error {
			_, err := c.Compute(ctx, ComputeRequest{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 9}}}, Policy: "ID"})
			return err
		}},
		{"self loop", func() error {
			_, err := c.Compute(ctx, ComputeRequest{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{1, 1}}}, Policy: "ID"})
			return err
		}},
		{"negative nodes", func() error {
			_, err := c.Compute(ctx, ComputeRequest{Graph: GraphSpec{Nodes: -1}, Policy: "ID"})
			return err
		}},
		{"too many nodes", func() error {
			_, err := c.Compute(ctx, ComputeRequest{Graph: GraphSpec{Nodes: 101}, Policy: "ID"})
			return err
		}},
		{"missing energy for EL1", func() error {
			_, err := c.Compute(ctx, ComputeRequest{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 1}, {1, 2}}}, Policy: "EL1"})
			return err
		}},
		{"short energy for EL2", func() error {
			_, err := c.Compute(ctx, ComputeRequest{
				Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 1}, {1, 2}}}, Policy: "EL2", Energy: []float64{1}})
			return err
		}},
		{"bad fault drop", func() error {
			_, err := c.Compute(ctx, ComputeRequest{
				Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 1}, {1, 2}}}, Policy: "ID",
				Faults: &FaultSpec{Drop: 1.5}})
			return err
		}},
		{"bad gateway id", func() error {
			_, err := c.Verify(ctx, VerifyRequest{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 1}}}, Gateways: []int{7}})
			return err
		}},
		{"bad drain", func() error {
			_, err := c.Simulate(ctx, SimulateRequest{N: 10, Policy: "ID", Drain: "bogus"})
			return err
		}},
		{"zero hosts simulate", func() error {
			_, err := c.Simulate(ctx, SimulateRequest{N: 0, Policy: "ID", Drain: "linear"})
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if ae, ok := err.(*APIError); !ok || ae.Status != http.StatusBadRequest {
			t.Errorf("%s: status = %v, want 400", tc.name, err)
		}
	}
}

func TestMethodNotAllowedAndUnknownPath(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := c.hc.Get(c.base + "/v1/compute")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/compute = %d, want 405", resp.StatusCode)
	}
	resp, err = c.hc.Get(c.base + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/nope = %d, want 404", resp.StatusCode)
	}
}

func TestLoadShedding(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1, TestDelay: 300 * time.Millisecond})
	// Distinct graphs so coalescing cannot absorb the burst: paths of
	// different lengths.
	const burst = 6
	var wg sync.WaitGroup
	results := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specFor(graph.Path(4 + i))
			_, results[i] = c.Compute(context.Background(), ComputeRequest{Graph: spec, Policy: "ID"})
		}(i)
	}
	wg.Wait()
	shed, ok := 0, 0
	for _, err := range results {
		if err == nil {
			ok++
			continue
		}
		if ae, isAPI := err.(*APIError); isAPI && ae.Status == http.StatusServiceUnavailable {
			shed++
		} else {
			t.Fatalf("unexpected error under overload: %v", err)
		}
	}
	if ok == 0 {
		t.Fatal("no request survived the burst")
	}
	if shed == 0 {
		t.Fatal("1-worker/1-slot server absorbed a burst of 6 slow requests without shedding")
	}
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, `cdsd_shed_total{endpoint="compute"}`); int(got) != shed {
		t.Fatalf("shed counter = %v, responses said %d", got, shed)
	}
	// Every shed response tells the client when to come back.
	for _, err := range results {
		if ae, isAPI := err.(*APIError); isAPI && ae.Status == http.StatusServiceUnavailable && ae.RetryAfter <= 0 {
			t.Fatalf("shed response missing Retry-After hint: %+v", ae)
		}
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.add("a", 1)
	c.add("b", 2)
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.add("c", 3) // evicts b (least recently used after the get of a)
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	d := newLRUCache(0)
	d.add("x", 1)
	if _, _, ok := d.get("x"); ok {
		t.Fatal("disabled cache returned a value")
	}
}

func TestLRUCacheAge(t *testing.T) {
	c := newLRUCache(4)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.add("a", 1)
	now = now.Add(3 * time.Second)
	if _, age, ok := c.get("a"); !ok || age != 3*time.Second {
		t.Fatalf("age = %v ok=%v, want 3s", age, ok)
	}
	// Re-adding refreshes the timestamp.
	c.add("a", 2)
	if _, age, _ := c.get("a"); age != 0 {
		t.Fatalf("age after refresh = %v, want 0", age)
	}
}

func TestCacheKeyIgnoresEnergyForTopologyPolicies(t *testing.T) {
	d := graph.Digest(graph.Path(5))
	e1 := []float64{1, 2, 3, 4, 5}
	e2 := []float64{9, 9, 9, 9, 9}
	if cacheKey(d, 5, cds.ND, e1, 1) != cacheKey(d, 5, cds.ND, e2, 1) {
		t.Fatal("ND key depends on energy")
	}
	if cacheKey(d, 5, cds.EL1, e1, 1) == cacheKey(d, 5, cds.EL1, e2, 1) {
		t.Fatal("EL1 key ignores energy")
	}
	if cacheKey(d, 5, cds.ID, nil, 1) == cacheKey(d, 5, cds.ND, nil, 1) {
		t.Fatal("policies share a key")
	}
}
