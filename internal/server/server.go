// Package server implements cdsd, the CDS-computation service: an
// HTTP/JSON API over the library's marking + pruning pipeline with real
// serving machinery — a bounded worker pool with per-request deadlines, an
// LRU result cache keyed on the canonical graph digest, singleflight
// coalescing of identical in-flight computations, graceful drain, and a
// Prometheus-text metrics endpoint.
//
// Endpoints:
//
//	POST /v1/compute   marking + pruning under any policy (opt-in faults)
//	POST /v1/simulate  lifetime simulation runs
//	POST /v1/verify    CDS validity + backbone quality report
//	GET  /v1/policies  the five policies and their priority keys
//	GET  /healthz      liveness/readiness (503 while draining)
//	GET  /metrics      Prometheus text exposition
//
// The paper's policies are meant to be recomputed continuously as
// topology and energy change; this package turns that into an online
// serving workload. Caching works because the cache key quantizes the
// energy vector: successive requests during one update interval collapse
// onto one entry, and the marking recomputes only when topology or an
// energy tier actually moves.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/energy"
	"pacds/internal/metrics"
	"pacds/internal/obs"
	"pacds/internal/sim"
	"pacds/internal/stats"
	"pacds/internal/topo"
)

// Config parameterizes a Server. The zero value gets sensible serving
// defaults from withDefaults.
type Config struct {
	// Workers bounds concurrent computations (default GOMAXPROCS).
	Workers int
	// ComputeWorkers bounds intra-request parallelism: the number of
	// goroutines one compute/verify request may fan out across the
	// marking pass (cds.MarkParallel); pruning is one sequential sweep.
	// Default 1 — the worker pool already runs requests in parallel, so
	// per-request fan-out is opt-in for deployments serving few, large
	// topologies rather than many small ones. Output is byte-identical at
	// every setting.
	ComputeWorkers int
	// QueueDepth bounds jobs waiting for a worker; submissions beyond it
	// are refused with 503 (load shedding, default 128).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries (default
	// 1024; <0 disables caching, 0 means default).
	CacheSize int
	// RequestTimeout is the per-request computation deadline (default 10s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 5s); used by Close
	// and cmd/cdsd.
	DrainTimeout time.Duration
	// EnergyQuantum is the cache-key quantization step for energy levels
	// (default 1.0, the paper's non-gateway drain per interval).
	EnergyQuantum float64
	// MaxNodes rejects larger request topologies (default 100000).
	MaxNodes int
	// CacheTTL bounds how long a cached compute result is served as a
	// normal (fresh) hit; older entries are recomputed on access. Zero
	// means entries never expire. Stale entries stay in the cache either
	// way — they are the brownout inventory.
	CacheTTL time.Duration
	// BrownoutEndpoints lists endpoints that degrade under overload
	// instead of shedding: when the worker queue is full, the endpoint
	// serves the most recent cached result for the request — stale or
	// not — flagged degraded:true. Only endpoints with a result cache
	// can actually degrade (today: "compute"); names without one are
	// accepted and ignored, so policy can be set fleet-wide.
	BrownoutEndpoints []string
	// ShedRetryAfter is the Retry-After hint attached to 503 responses
	// (load sheds, drain refusals, saturation), rounded up to whole
	// seconds on the wire (default 1s).
	ShedRetryAfter time.Duration

	// MaxSessions bounds live streaming-topology sessions; admissions
	// beyond it evict the least-recently-used session (default 1024).
	MaxSessions int
	// SessionIdleTTL expires sessions untouched for this long (default
	// 10m).
	SessionIdleTTL time.Duration
	// SessionReap is the session reaper period (default 30s; negative
	// disables the background goroutine).
	SessionReap time.Duration
	// SessionMaxChanges bounds the link events in one delta batch
	// (default 4096).
	SessionMaxChanges int
	// SessionHistory bounds the per-session change-summary ring used for
	// since-epoch diffs (default 64).
	SessionHistory int

	// Tracing parameterizes request-scoped tracing (see internal/obs).
	// The zero value — Capacity 0 — disables tracing entirely: no trace
	// ring, no context values, zero allocations on the request path.
	Tracing obs.TracerConfig
	// Debug exposes net/http/pprof under /debug/pprof/ on the API mux.
	Debug bool
	// Logger receives structured per-request logs (default: discard).
	// Request lines are Debug level; failures are Warn.
	Logger *slog.Logger

	// TestDelay artificially lengthens every computation; tests (both in
	// this package and in the load harness) use it to hold requests in
	// flight deterministically and to force shed/timeout paths. It must
	// be set before New so workers observe it without synchronization.
	// Production configurations leave it zero.
	TestDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ComputeWorkers <= 0 {
		c.ComputeWorkers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 1024
	case c.CacheSize < 0:
		c.CacheSize = 0 // disabled
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.EnergyQuantum <= 0 {
		c.EnergyQuantum = 1
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 100000
	}
	if c.CacheTTL < 0 {
		c.CacheTTL = 0
	}
	if c.ShedRetryAfter <= 0 {
		c.ShedRetryAfter = time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	return c
}

// Server is the cdsd service. Create with New, expose via Handler, stop
// with Shutdown (graceful) or Close.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	jobs   chan *job
	quit   chan struct{}
	stopWk sync.Once
	wkDone sync.WaitGroup

	// drainMu makes the draining check and the inflight registration
	// atomic with respect to BeginDrain, so Shutdown's Wait can never
	// miss a request that passed the check: handlers register under the
	// read lock, BeginDrain flips the flag under the write lock.
	drainMu  sync.RWMutex
	inflight sync.WaitGroup
	draining bool

	cache    *lruCache
	flight   *flightGroup
	brownout map[string]bool // endpoints serving degraded responses under overload
	sessions *topo.Manager   // streaming-topology session subsystem
	tracer   *obs.Tracer     // nil when tracing is disabled (nil-safe)
	log      *slog.Logger

	reg        *metrics.Registry
	mHits      *metrics.Counter
	mMisses    *metrics.Counter
	mCoalesced *metrics.Counter
	mDegraded  *metrics.Counter
	gQueue     *metrics.Gauge
	gInflight  *metrics.Gauge
	gEntries   *metrics.Gauge
}

type job struct {
	ctx    context.Context
	stage  string    // span name for the on-worker execution ("" = untraced stage)
	queued *obs.Span // queue-wait span, ended when a worker picks the job up
	fn     func() (any, error)
	val    any
	err    error
	done   chan struct{}
}

// Sentinel serving errors, mapped to HTTP statuses by the handlers.
var (
	errOverloaded = errors.New("server overloaded: job queue full")
	errDraining   = errors.New("server draining: not accepting new requests")
)

// New starts a Server and its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		jobs:     make(chan *job, cfg.QueueDepth),
		quit:     make(chan struct{}),
		cache:    newLRUCache(cfg.CacheSize),
		flight:   newFlightGroup(),
		brownout: make(map[string]bool),
		tracer:   obs.NewTracer(cfg.Tracing),
		log:      cfg.Logger,
		reg:      metrics.NewRegistry(),
	}
	for _, ep := range cfg.BrownoutEndpoints {
		s.brownout[ep] = true
	}
	s.mHits = s.reg.Counter("cdsd_cache_hits_total", "compute results served from the LRU cache")
	s.mMisses = s.reg.Counter("cdsd_cache_misses_total", "compute requests that ran the full pipeline")
	s.mCoalesced = s.reg.Counter("cdsd_coalesced_total", "compute requests coalesced onto an identical in-flight computation")
	s.mDegraded = s.reg.Counter(`cdsd_degraded_total{endpoint="compute"}`, "brownout responses served from stale cache instead of shedding")
	s.sessions = topo.NewManager(topo.Config{
		MaxSessions:  cfg.MaxSessions,
		MaxNodes:     cfg.MaxNodes,
		MaxChanges:   cfg.SessionMaxChanges,
		IdleTTL:      cfg.SessionIdleTTL,
		ReapInterval: cfg.SessionReap,
		History:      cfg.SessionHistory,
		Registry:     s.reg,
	})
	s.gQueue = s.reg.Gauge("cdsd_queue_depth", "jobs waiting for a worker")
	s.gInflight = s.reg.Gauge("cdsd_inflight_requests", "requests currently being served")
	s.gEntries = s.reg.Gauge("cdsd_cache_entries", "entries in the result cache")

	s.wkDone.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compute", s.endpoint("compute", s.handleCompute))
	s.mux.HandleFunc("POST /v1/simulate", s.endpoint("simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/verify", s.endpoint("verify", s.handleVerify))
	s.mux.HandleFunc("GET /v1/policies", s.endpoint("policies", s.handlePolicies))
	s.mux.HandleFunc("POST /v1/sessions", s.endpoint("session_create", s.handleSessionCreate))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.endpoint("session_get", s.handleSessionGet))
	s.mux.HandleFunc("POST /v1/sessions/{id}/changes", s.endpoint("session_changes", s.handleSessionChanges))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.endpoint("session_delete", s.handleSessionDelete))
	s.mux.HandleFunc("GET /healthz", s.handleReady) // back-compat: readiness
	s.mux.HandleFunc("GET /healthz/live", s.handleLive)
	s.mux.HandleFunc("GET /healthz/ready", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The traces route is registered even when tracing is off: a nil
	// tracer's handler answers 404, so probes get a clear signal instead
	// of the mux's generic not-found.
	s.mux.Handle("GET /debug/traces", s.tracer.TracesHandler())
	if cfg.Debug {
		obs.RegisterPprof(s.mux)
	}
	return s
}

// Handler returns the HTTP handler serving the full API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry (shared, live).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Tracer returns the server's trace ring (nil when tracing is disabled;
// the nil tracer is safe to use).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

func (s *Server) worker() {
	defer s.wkDone.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			s.gQueue.Add(-1)
			j.queued.End()
			if j.ctx.Err() != nil {
				j.err = j.ctx.Err() // deadline passed while queued: skip the work
			} else {
				var sp *obs.Span
				if j.stage != "" {
					sp = obs.FromContext(j.ctx).StartSpan(j.stage)
				}
				if s.cfg.TestDelay > 0 {
					select {
					case <-time.After(s.cfg.TestDelay):
					case <-j.ctx.Done():
					}
				}
				j.val, j.err = j.fn()
				sp.End()
			}
			close(j.done)
		}
	}
}

// submit runs fn on the worker pool and waits for it under ctx. A full
// queue sheds the request immediately rather than queueing unbounded
// work. When ctx carries a trace, a queue-wait span covers the time
// between submission and worker pickup, and the on-worker execution runs
// inside a span named stage ("" records no stage span — used where the
// callee records finer-grained spans itself).
func (s *Server) submit(ctx context.Context, stage string, fn func() (any, error)) (any, error) {
	qs := obs.FromContext(ctx).StartSpan("queue-wait")
	j := &job{ctx: ctx, stage: stage, queued: qs, fn: fn, done: make(chan struct{})}
	select {
	case s.jobs <- j:
		s.gQueue.Add(1)
	case <-s.quit:
		qs.Attr("outcome", "draining").End()
		return nil, errDraining
	default:
		qs.Attr("outcome", "shed").End()
		return nil, errOverloaded // the endpoint wrapper counts the shed
	}
	select {
	case <-j.done:
		return j.val, j.err
	case <-ctx.Done():
		// The worker may still finish the job; the result is simply
		// dropped. Computations are bounded by MaxNodes, so abandoned
		// work cannot pile up.
		return nil, ctx.Err()
	}
}

// BeginDrain atomically switches the server into draining mode: every
// subsequent API request is refused with 503 while in-flight requests run
// to completion.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// tryEnter registers one in-flight request unless the server is draining.
func (s *Server) tryEnter() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown gracefully stops the server: new requests are refused, then
// Shutdown blocks until every in-flight request completes or ctx expires,
// and finally the worker pool exits. It is safe to call concurrently with
// request handling and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Both channels may be ready at once (an already-expired ctx);
		// a completed drain is never an error.
		select {
		case <-done:
		default:
			err = fmt.Errorf("cdsd: drain deadline exceeded: %w", ctx.Err())
		}
	}
	s.stopWk.Do(func() { close(s.quit) })
	s.wkDone.Wait()
	s.sessions.Close() // stop the session reaper (idempotent)
	return err
}

// Close is Shutdown with the configured DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// endpoint wraps an API handler with the serving cross-cutting concerns:
// drain refusal, in-flight accounting, request deadline, body limits, and
// per-endpoint request/error/latency/shed metrics. Every 503 it writes
// carries a Retry-After hint so well-behaved clients back off instead of
// hammering an overloaded server.
func (s *Server) endpoint(name string, h func(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error)) http.HandlerFunc {
	reqs := s.reg.Counter(fmt.Sprintf("cdsd_requests_total{endpoint=%q}", name), "API requests by endpoint")
	errs := s.reg.Counter(fmt.Sprintf("cdsd_errors_total{endpoint=%q}", name), "API error responses by endpoint")
	shed := s.reg.Counter(fmt.Sprintf("cdsd_shed_total{endpoint=%q}", name), "requests refused because the job queue was full")
	lat := s.reg.Histogram(fmt.Sprintf("cdsd_service_seconds{endpoint=%q}", name), "request service time in seconds", nil)
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		// The client's X-Trace-Id (when parsable) becomes the trace id, so
		// client- and server-side views of one request join on it; the id
		// is echoed on the response either way.
		id, _ := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
		rctx, tr := s.tracer.StartRequest(r.Context(), name, id)
		if tr != nil {
			w.Header().Set(obs.TraceHeader, obs.FormatTraceID(tr.ID()))
			defer tr.Finish()
		}
		if !s.tryEnter() {
			errs.Inc()
			tr.SetAttr("refused", "draining")
			s.setRetryAfter(w)
			s.writeJSONCtx(rctx, w, http.StatusServiceUnavailable, errorResponse{Error: errDraining.Error()})
			return
		}
		s.gInflight.Add(1)
		defer func() {
			s.gInflight.Add(-1)
			s.inflight.Done()
		}()

		ctx, cancel := context.WithTimeout(rctx, s.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, 64<<20)

		start := time.Now()
		status, err := h(ctx, w, r)
		lat.Observe(time.Since(start).Seconds())
		if err != nil {
			errs.Inc()
			if errors.Is(err, errOverloaded) {
				shed.Inc()
				tr.SetAttr("shed", "true")
			}
			if status == http.StatusServiceUnavailable {
				s.setRetryAfter(w)
			}
			s.writeJSONCtx(ctx, w, status, errorResponse{Error: err.Error()})
			s.log.Warn("request failed",
				"endpoint", name, "trace", traceIDOf(tr), "status", status,
				"err", err, "dur", time.Since(start))
			return
		}
		s.log.Debug("request",
			"endpoint", name, "trace", traceIDOf(tr), "dur", time.Since(start))
	}
}

// traceIDOf renders a trace's id for log attrs ("" when untraced).
func traceIDOf(tr *obs.Trace) string {
	if tr == nil {
		return ""
	}
	return obs.FormatTraceID(tr.ID())
}

// setRetryAfter attaches the configured Retry-After hint, rounded up to
// whole seconds (the header's wire granularity).
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int((s.cfg.ShedRetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// statusFor maps serving errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errOverloaded), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeJSONCtx is writeJSON with tracing: the response status lands on
// the request trace and the serialization runs inside an encode span.
func (s *Server) writeJSONCtx(ctx context.Context, w http.ResponseWriter, status int, v any) {
	tr := obs.FromContext(ctx)
	tr.SetStatus(status)
	sp := tr.StartSpan("encode")
	writeJSON(w, status, v)
	sp.End()
}

// --- Handlers ---

func (s *Server) handleCompute(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	var req ComputeRequest
	if err := decodeFast(r, &req, scanCompute); err != nil {
		return http.StatusBadRequest, err
	}
	policy, err := cds.ByName(req.Policy)
	if err != nil {
		return http.StatusBadRequest, err
	}
	g, err := req.Graph.build(s.cfg.MaxNodes)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if policy.NeedsEnergy() && len(req.Energy) != g.NumNodes() {
		return http.StatusBadRequest,
			fmt.Errorf("policy %v needs energy levels for all %d nodes, got %d", policy, g.NumNodes(), len(req.Energy))
	}

	// Fault-scenario runs bypass cache and coalescing: they are
	// parameterized explorations, not steady-state serving traffic.
	if req.Faults != nil {
		plan, err := req.Faults.plan()
		if err != nil {
			return http.StatusBadRequest, err
		}
		v, err := s.submit(ctx, "compute", func() (any, error) {
			res, err := distributed.RunHardened(g, policy, req.Energy, distributed.HardenedConfig{Faults: plan})
			if err != nil {
				return nil, err
			}
			return &ComputeResponse{
				Policy:          policy.String(),
				Nodes:           g.NumNodes(),
				NumGateways:     cds.CountGateways(res.Gateway),
				Gateways:        boolsToIDs(res.Gateway),
				Alive:           boolsToIDs(res.Alive),
				Retransmissions: res.Stats.Retransmissions,
				Evictions:       res.Stats.Evictions,
			}, nil
		})
		if err != nil {
			return statusFor(err), err
		}
		s.writeJSONCtx(ctx, w, http.StatusOK, v)
		return 0, nil
	}

	tr := obs.FromContext(ctx)
	key := cacheKey(g, policy, req.Energy, s.cfg.EnergyQuantum)
	ls := tr.StartSpan("cache-lookup")
	v, age, ok := s.cache.get(key)
	fresh := ok && (s.cfg.CacheTTL == 0 || age <= s.cfg.CacheTTL)
	switch {
	case fresh:
		ls.Attr("outcome", "hit")
	case ok:
		ls.Attr("outcome", "stale")
	default:
		ls.Attr("outcome", "miss")
	}
	ls.End()
	if fresh {
		s.mHits.Inc()
		resp := *v.(*ComputeResponse) // shallow copy; cached object is immutable
		resp.Cached = true
		s.writeJSONCtx(ctx, w, http.StatusOK, s.trimMarked(&resp, req.IncludeMarked))
		return 0, nil
	}
	v, shared, err := s.flight.do(key, func() (any, error) {
		return s.submit(ctx, "compute", func() (any, error) {
			// Pooled scratch for the pipeline's per-node status slices;
			// only the compact id lists below outlive this closure.
			sc := getScratch(g.NumNodes())
			defer putScratch(sc)
			cds.MarkParallelInto(g, sc.marked, s.cfg.ComputeWorkers)
			if err := cds.ApplyRulesParallelInto(g, policy, sc.marked, req.Energy, s.cfg.ComputeWorkers, sc.gateway); err != nil {
				return nil, err
			}
			resp := &ComputeResponse{
				Policy:      policy.String(),
				Nodes:       g.NumNodes(),
				NumGateways: cds.CountGateways(sc.gateway),
				Gateways:    boolsToIDs(sc.gateway),
				Marked:      boolsToIDs(sc.marked),
			}
			s.cache.add(key, resp)
			s.gEntries.Set(int64(s.cache.len()))
			return resp, nil
		})
	})
	if err != nil {
		// Brownout: rather than shed, serve the most recent cached result —
		// stale or not — flagged degraded. Identical inputs give identical
		// CDSs, so a stale entry is wrong only insofar as the energy tier
		// may have moved one quantum; routing on it beats a 503.
		if errors.Is(err, errOverloaded) && s.brownout["compute"] {
			if v, _, ok := s.cache.get(key); ok {
				s.mDegraded.Inc()
				tr.SetAttr("brownout", "degraded")
				resp := *v.(*ComputeResponse)
				resp.Cached = true
				resp.Degraded = true
				s.writeJSONCtx(ctx, w, http.StatusOK, s.trimMarked(&resp, req.IncludeMarked))
				return 0, nil
			}
		}
		return statusFor(err), err
	}
	s.mMisses.Inc()
	if shared {
		s.mCoalesced.Inc()
		tr.SetAttr("coalesced", "true")
	}
	resp := *v.(*ComputeResponse)
	resp.Coalesced = shared
	s.writeJSONCtx(ctx, w, http.StatusOK, s.trimMarked(&resp, req.IncludeMarked))
	return 0, nil
}

// trimMarked drops the Marked list unless the client asked for it (it is
// cached alongside the gateways, but most clients only route).
func (s *Server) trimMarked(resp *ComputeResponse, include bool) *ComputeResponse {
	if !include {
		resp.Marked = nil
	}
	return resp
}

func (s *Server) handleVerify(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	var req VerifyRequest
	if err := decodeFast(r, &req, scanVerify); err != nil {
		return http.StatusBadRequest, err
	}
	g, err := req.Graph.build(s.cfg.MaxNodes)
	if err != nil {
		return http.StatusBadRequest, err
	}
	n := g.NumNodes()
	for _, id := range req.Gateways {
		if id < 0 || id >= n {
			return http.StatusBadRequest, fmt.Errorf("gateway id %d out of range [0, %d)", id, n)
		}
	}
	v, err := s.submit(ctx, "verify", func() (any, error) {
		// Pooled membership slice, built from the validated id list; like
		// compute, the scratch never outlives the closure.
		sc := getScratch(n)
		defer putScratch(sc)
		gateway := sc.gateway
		for i := range gateway {
			gateway[i] = false
		}
		for _, id := range req.Gateways {
			gateway[id] = true
		}
		report, err := cds.Analyze(g, gateway)
		if err != nil {
			return nil, err
		}
		resp := &VerifyResponse{
			Valid:              report.Valid == nil,
			NumGateways:        report.Gateways,
			BackboneDiameter:   report.BackboneDiameter,
			ArticulationPoints: report.ArticulationPoints,
			MeanRedundancy:     report.MeanRedundancy,
		}
		if report.Valid != nil {
			resp.Reason = report.Valid.Error()
		}
		return resp, nil
	})
	if err != nil {
		return statusFor(err), err
	}
	s.writeJSONCtx(ctx, w, http.StatusOK, v)
	return 0, nil
}

func (s *Server) handleSimulate(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	var req SimulateRequest
	if err := decodeJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	policy, err := cds.ByName(req.Policy)
	if err != nil {
		return http.StatusBadRequest, err
	}
	drainName := req.Drain
	if drainName == "" {
		drainName = "linear"
	}
	drain, err := energy.ByName(drainName)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if req.N <= 0 || req.N > s.cfg.MaxNodes {
		return http.StatusBadRequest, fmt.Errorf("n %d out of range (0, %d]", req.N, s.cfg.MaxNodes)
	}
	cfg := sim.PaperConfig(req.N, policy, drain, req.Seed)
	if req.Static {
		cfg.Mobility = nil
	}
	trials := req.Trials
	if trials <= 0 {
		trials = 1
	}
	v, err := s.submit(ctx, "simulate", func() (any, error) {
		resp := &SimulateResponse{Policy: policy.String(), Drain: drain.Name(), Trials: trials}
		if trials == 1 {
			m, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			resp.Lifetime = float64(m.Intervals)
			resp.MeanGateways = m.MeanGateways
			if m.Truncated {
				resp.TruncatedRuns = 1
			}
			return resp, nil
		}
		ts, err := sim.RunTrials(cfg, trials)
		if err != nil {
			return nil, err
		}
		life := stats.Summarize(ts.Lifetime)
		gw := stats.Summarize(ts.MeanGateways)
		resp.Lifetime = life.Mean
		resp.LifetimeMin = life.Min
		resp.LifetimeMax = life.Max
		resp.MeanGateways = gw.Mean
		resp.TruncatedRuns = ts.TruncatedRuns
		return resp, nil
	})
	if err != nil {
		return statusFor(err), err
	}
	s.writeJSONCtx(ctx, w, http.StatusOK, v)
	return 0, nil
}

func (s *Server) handlePolicies(ctx context.Context, w http.ResponseWriter, r *http.Request) (int, error) {
	infos := make([]PolicyInfo, 0, len(cds.Policies))
	for _, p := range cds.Policies {
		infos = append(infos, PolicyInfo{
			Name:        p.String(),
			NeedsEnergy: p.NeedsEnergy(),
			Description: policyDescriptions[p],
		})
	}
	s.writeJSONCtx(ctx, w, http.StatusOK, infos)
	return 0, nil
}

// handleLive is the liveness probe: the process is up and serving HTTP.
// It stays 200 while draining — restarting a draining server would turn
// graceful shutdowns into dropped requests.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 200 only when the server will
// accept new work right now. Draining or a saturated job queue reports
// 503 with the queue state, so load balancers rotate traffic away
// before requests start getting shed.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadinessResponse{
		Status:         "ready",
		QueueDepth:     len(s.jobs),
		QueueCapacity:  cap(s.jobs),
		Inflight:       int(s.gInflight.Value()),
		Brownout:       append([]string(nil), s.cfg.BrownoutEndpoints...),
		SessionsActive: s.sessions.Len(),
		SessionsMax:    s.sessions.Cap(),
	}
	status := http.StatusOK
	switch {
	case s.Draining():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case resp.QueueDepth >= resp.QueueCapacity:
		resp.Status = "saturated"
		status = http.StatusServiceUnavailable
	}
	if status == http.StatusServiceUnavailable {
		s.setRetryAfter(w)
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.gEntries.Set(int64(s.cache.len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var err error
	if err = s.reg.WritePrometheus(w); err != nil && !errors.Is(err, io.ErrClosedPipe) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
