package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pacds/internal/cds"
)

// chain returns a path graph on n nodes (connected; interior nodes become
// gateways).
func chain(n int) GraphSpec {
	spec := GraphSpec{Nodes: n}
	for v := 0; v+1 < n; v++ {
		spec.Edges = append(spec.Edges, [2]int{v, v + 1})
	}
	return spec
}

func TestSessionEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	created, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(8), Policy: "ND"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if created.Epoch != 0 || created.Nodes != 8 || created.Policy != "ND" {
		t.Fatalf("created = %+v", created)
	}
	if created.NumGateways == 0 || len(created.Gateways) != created.NumGateways {
		t.Fatalf("gateway fields inconsistent: %+v", created)
	}

	// Stream a batch: close the ring, drop one interior link.
	after, err := c.SessionChanges(ctx, created.ID, SessionChangesRequest{
		Changes: []SessionEdgeChange{{A: 0, B: 7, Up: true}, {A: 3, B: 4, Up: false}},
	})
	if err != nil {
		t.Fatalf("SessionChanges: %v", err)
	}
	if after.Epoch != 1 || after.Batches != 1 || after.Changes != 2 {
		t.Fatalf("after = %+v", after)
	}

	// Snapshot with a since-diff reconstructs the gateway set.
	snap, err := c.Session(ctx, created.ID, 0)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if snap.Summary == nil || !snap.Summary.Complete {
		t.Fatalf("summary = %+v", snap.Summary)
	}
	have := map[int]bool{}
	for _, v := range created.Gateways {
		have[v] = true
	}
	for _, v := range snap.Summary.GatewaysAdded {
		have[v] = true
	}
	for _, v := range snap.Summary.GatewaysRemoved {
		delete(have, v)
	}
	if len(have) != snap.NumGateways {
		t.Fatalf("diff replay has %d gateways, snapshot %d", len(have), snap.NumGateways)
	}
	for _, v := range snap.Gateways {
		if !have[v] {
			t.Fatalf("diff replay missing gateway %d", v)
		}
	}

	// The maintained assignment is a valid CDS of the maintained topology.
	g, err := chain(8).build(0)
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 7)
	g.RemoveEdge(3, 4)
	gateway, err := idsToBools(8, snap.Gateways)
	if err != nil {
		t.Fatal(err)
	}
	if err := cds.VerifyCDS(g, gateway); err != nil {
		t.Fatalf("maintained assignment is not a CDS: %v", err)
	}

	if err := c.DeleteSession(ctx, created.ID); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	_, err = c.Session(ctx, created.ID, -1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("Session after delete: %v, want 404", err)
	}
}

func TestSessionValidation(t *testing.T) {
	_, c := newTestServer(t, Config{MaxNodes: 64, SessionMaxChanges: 4})
	ctx := context.Background()

	badCreates := []SessionCreateRequest{
		{Graph: chain(4), Policy: "bogus"},
		{Graph: GraphSpec{Nodes: -1}, Policy: "ID"},
		{Graph: chain(65), Policy: "ID"},
		{Graph: chain(4), Policy: "EL1"},                                    // missing energy
		{Graph: chain(4), Policy: "ID", Energy: []float64{1}},               // wrong length
		{Graph: GraphSpec{Nodes: 3, Edges: [][2]int{{0, 5}}}, Policy: "ID"}, // bad edge
	}
	for i, req := range badCreates {
		_, err := c.CreateSession(ctx, req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 {
			t.Errorf("create %d: err = %v, want 400", i, err)
		}
	}

	created, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(6), Policy: "ID"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	badBatches := []SessionChangesRequest{
		{Changes: []SessionEdgeChange{{A: 2, B: 2, Up: true}}},
		{Changes: []SessionEdgeChange{{A: 0, B: 9, Up: true}}},
		{Changes: []SessionEdgeChange{{A: 0, B: 2, Up: true}, {A: 0, B: 3, Up: true}, {A: 0, B: 4, Up: true}, {A: 1, B: 3, Up: true}, {A: 1, B: 4, Up: true}}},
		{Energy: []float64{1, 2}},
	}
	for i, req := range badBatches {
		_, err := c.SessionChanges(ctx, created.ID, req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 {
			t.Errorf("batch %d: err = %v, want 400", i, err)
		}
	}
	// Rejected batches left the session at epoch 0.
	snap, err := c.Session(ctx, created.ID, -1)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if snap.Epoch != 0 {
		t.Fatalf("epoch = %d after rejected batches, want 0", snap.Epoch)
	}

	// Unknown session ids are 404 on every route.
	if _, err := c.SessionChanges(ctx, "nope", SessionChangesRequest{}); !isStatus(err, 404) {
		t.Errorf("changes on unknown id: %v", err)
	}
	if _, err := c.Session(ctx, "nope", -1); !isStatus(err, 404) {
		t.Errorf("get on unknown id: %v", err)
	}
	if err := c.DeleteSession(ctx, "nope"); !isStatus(err, 404) {
		t.Errorf("delete on unknown id: %v", err)
	}
}

func isStatus(err error, status int) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// TestSessionLimit fills the session table and checks LRU eviction keeps
// admissions succeeding while readiness reports the load.
func TestSessionLimit(t *testing.T) {
	_, c := newTestServer(t, Config{MaxSessions: 3})
	ctx := context.Background()

	var ids []string
	for i := 0; i < 3; i++ {
		s, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(5), Policy: "ID"})
		if err != nil {
			t.Fatalf("CreateSession %d: %v", i, err)
		}
		ids = append(ids, s.ID)
	}
	ready, err := c.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if ready.SessionsActive != 3 || ready.SessionsMax != 3 {
		t.Fatalf("readiness sessions = %d/%d, want 3/3", ready.SessionsActive, ready.SessionsMax)
	}

	// One more admission evicts the LRU session; the population stays 3.
	over, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(5), Policy: "ID"})
	if err != nil {
		t.Fatalf("CreateSession over cap: %v", err)
	}
	live := 0
	for _, id := range append(ids, over.ID) {
		if _, err := c.Session(ctx, id, -1); err == nil {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("%d sessions live after over-cap admission, want 3", live)
	}
}

// TestSessionConcurrentBatches drives one session from many client
// goroutines; every applied batch lands on a distinct epoch.
func TestSessionConcurrentBatches(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, QueueDepth: 512})
	ctx := context.Background()
	created, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(10), Policy: "ID"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}

	const workers, perWorker = 6, 10
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				a := (w*perWorker + i) % 9
				resp, err := c.SessionChanges(ctx, created.ID, SessionChangesRequest{
					Changes: []SessionEdgeChange{{A: a, B: (a + 2) % 10, Up: i%2 == 0}},
				})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				dup := seen[resp.Epoch]
				seen[resp.Epoch] = true
				mu.Unlock()
				if dup {
					errs <- errors.New("duplicate epoch: batches not serialized")
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
	snap, err := c.Session(ctx, created.ID, -1)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	if snap.Epoch != workers*perWorker || snap.Batches != workers*perWorker {
		t.Fatalf("final epoch/batches = %d/%d, want %d", snap.Epoch, snap.Batches, workers*perWorker)
	}
}

// TestSessionMetrics checks the new session series appear in /metrics.
func TestSessionMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	created, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(6), Policy: "ID"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := c.SessionChanges(ctx, created.ID, SessionChangesRequest{
		Changes: []SessionEdgeChange{{A: 0, B: 3, Up: true}},
	}); err != nil {
		t.Fatalf("SessionChanges: %v", err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatalf("MetricsText: %v", err)
	}
	for _, want := range []string{
		"cdsd_sessions_active 1",
		"cdsd_session_batches_total 1",
		"cdsd_session_changes_total 1",
		"cdsd_session_apply_seconds_count 1",
		`cdsd_requests_total{endpoint="session_changes"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSessionDrain checks session routes obey the drain discipline.
func TestSessionDrain(t *testing.T) {
	s, c := newTestServer(t, Config{DrainTimeout: time.Second})
	ctx := context.Background()
	created, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(5), Policy: "ID"})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	s.BeginDrain()
	if _, err := c.CreateSession(ctx, SessionCreateRequest{Graph: chain(5), Policy: "ID"}); !isStatus(err, 503) {
		t.Errorf("create while draining: %v, want 503", err)
	}
	if _, err := c.Session(ctx, created.ID, -1); !isStatus(err, 503) {
		t.Errorf("get while draining: %v, want 503", err)
	}
}

// TestSessionEnergyPolicy exercises an energy-aware session: draining the
// batteries of current gateways steers the CDS toward fresher hosts.
func TestSessionEnergyPolicy(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	// A dense blob where several nodes can dominate: two triangles joined.
	spec := GraphSpec{Nodes: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}, {1, 3}, {2, 4}}}
	energy := []float64{50, 50, 50, 50, 50, 50}
	created, err := c.CreateSession(ctx, SessionCreateRequest{Graph: spec, Policy: "EL1", Energy: energy})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	// A pure-energy batch (no link events) must still advance the epoch
	// and re-run the rules.
	for i := range energy {
		energy[i] = 50 - float64(i)
	}
	after, err := c.SessionChanges(ctx, created.ID, SessionChangesRequest{Energy: energy})
	if err != nil {
		t.Fatalf("energy batch: %v", err)
	}
	if after.Epoch != 2 { // UpdateEnergy + rule-phase ApplyChanges
		t.Fatalf("epoch after energy batch = %d, want 2", after.Epoch)
	}
	g, err := spec.build(0)
	if err != nil {
		t.Fatal(err)
	}
	gateway, err := idsToBools(6, after.Gateways)
	if err != nil {
		t.Fatal(err)
	}
	if err := cds.VerifyCDS(g, gateway); err != nil {
		t.Fatalf("post-energy assignment is not a CDS: %v", err)
	}
}
