package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"pacds/internal/graph"
)

// saturate occupies the 1-worker/1-slot server until the test ends: one
// job holds the worker and a second holds the queue slot. Holding on a
// channel rather than a timed delay keeps the server saturated however
// slowly the test's own request arrives.
func saturate(t *testing.T, s *Server) {
	t.Helper()
	hold := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	// Registered after newTestServer's cleanup, so it runs first and the
	// server closes with its worker free.
	t.Cleanup(func() {
		close(hold)
		wg.Wait()
	})
	occupy := func(fn func() (any, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.submit(context.Background(), "", fn); err != nil {
				t.Errorf("saturating job: %v", err)
			}
		}()
	}
	occupy(func() (any, error) {
		close(running)
		<-hold
		return nil, nil
	})
	<-running // the worker holds the first job
	occupy(func() (any, error) {
		<-hold
		return nil, nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for len(s.jobs) < cap(s.jobs) {
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBrownoutServesStaleUnderOverload(t *testing.T) {
	s, c := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		BrownoutEndpoints: []string{"compute"},
		CacheTTL:          time.Second,
	})
	// Prime the cache, then age the entry past the TTL so a fresh hit
	// cannot serve it.
	spec := specFor(graph.Path(6))
	req := ComputeRequest{Graph: spec, Policy: "ID"}
	warm, err := c.Compute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.now = func() time.Time { return time.Now().Add(2 * time.Hour) }

	saturate(t, s)
	// Overloaded + stale cache entry: brownout serves it degraded
	// instead of shedding.
	resp, err := c.Compute(context.Background(), req)
	if err != nil {
		t.Fatalf("brownout request shed: %v", err)
	}
	if !resp.Degraded || !resp.Cached {
		t.Fatalf("response = %+v, want Degraded and Cached", resp)
	}
	if resp.NumGateways != warm.NumGateways {
		t.Fatalf("degraded answer diverged: %d vs %d gateways", resp.NumGateways, warm.NumGateways)
	}

	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, `cdsd_degraded_total{endpoint="compute"}`); got < 1 {
		t.Fatalf("cdsd_degraded_total = %v, want >= 1", got)
	}
}

func TestBrownoutDisabledStillSheds(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	spec := specFor(graph.Path(6))
	req := ComputeRequest{Graph: spec, Policy: "ID"}
	if _, err := c.Compute(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Expire the fresh hit by disabling TTL? TTL is zero (never stale),
	// so a cached key would still serve fresh; use a different graph to
	// force submission.
	saturate(t, s)
	other := ComputeRequest{Graph: specFor(graph.Path(7)), Policy: "ID"}
	_, err := c.Compute(context.Background(), other)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 shed without brownout", err)
	}
}

func TestHealthzSplit(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.Live(ctx); err != nil {
		t.Fatalf("live probe failed on a healthy server: %v", err)
	}
	ready, err := c.Ready(ctx)
	if err != nil {
		t.Fatalf("ready probe failed on a healthy server: %v", err)
	}
	if ready.Status != "ready" || ready.QueueCapacity <= 0 {
		t.Fatalf("readiness = %+v, want ready with a positive queue capacity", ready)
	}

	s.BeginDrain()
	if err := c.Live(ctx); err != nil {
		t.Fatalf("live probe failed while draining: %v", err)
	}
	_, err = c.Ready(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("ready while draining = %v, want 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("draining readiness carries no Retry-After")
	}
	// Legacy /healthz mirrors readiness.
	if err := c.Health(ctx); err == nil {
		t.Fatal("legacy /healthz reported ready while draining")
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"5", 5 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"garbage", 0},
	} {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// An HTTP-date in the future parses to a positive delay.
	at := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(at); got <= 0 || got > 10*time.Second {
		t.Errorf("parseRetryAfter(date) = %v, want (0, 10s]", got)
	}
}
